"""Vector semantics: purity, jitter sensitivity, registry."""
import numpy as np
import pytest

from repro.platform import AudioStack, REFERENCE_PATH, sample_path
from repro.vectors import (AUDIO_VECTORS, COMPARATOR_VECTORS, VECTORS,
                           UnknownVectorError, get_vector, register)
from repro.vectors import base as vector_base
from repro.vectors.base import AnalyserVector, SampleSumVector

STACK = AudioStack("blink", "ucrt", "radix2", "blink")
OTHER = AudioStack("webkit", "apple-libm", "bluestein", "webkit", 48000)

#: strings that name no path in ``PATHS``: bad flags, no timing prefix,
#: a negative bucket, a bucket past t3
UNKNOWN_PATHS = ("t1.dX.mY.pZ", "x1.d0.m0.p0", "t-1.d0.m0.p0", "t9.d0.m0.p0")


def test_registry_contents():
    assert set(AUDIO_VECTORS) == {"dc", "fft", "hybrid", "custom", "merged",
                                  "am", "fm"}
    assert set(COMPARATOR_VECTORS) == {"mathjs", "canvas", "fonts",
                                       "useragent"}
    assert set(VECTORS) == set(AUDIO_VECTORS) | set(COMPARATOR_VECTORS)
    for name in AUDIO_VECTORS:
        assert get_vector(name).kind == "audio"
    for name in COMPARATOR_VECTORS:
        assert get_vector(name).kind == "comparator"


def test_unknown_vector_is_typed_and_a_keyerror():
    with pytest.raises(UnknownVectorError) as info:
        get_vector("nope")
    assert "nope" in str(info.value) and "dc" in str(info.value)
    with pytest.raises(KeyError):  # backward-compat contract
        get_vector("nope")


def test_register_refuses_duplicate_names():
    from repro.vectors.dc import DCVector
    with pytest.raises(ValueError, match="already registered"):
        register(DCVector())


@pytest.mark.parametrize("name", sorted(AUDIO_VECTORS))
def test_render_is_pure(name):
    vector = get_vector(name)
    assert vector.render(STACK, None) == vector.render(STACK, None)


@pytest.mark.parametrize("name", sorted(AUDIO_VECTORS))
def test_render_separates_stacks(name):
    vector = get_vector(name)
    assert vector.render(STACK, None) != vector.render(OTHER, None)


def test_efp_is_md5_hex():
    efp = get_vector("dc").render(STACK, None)
    assert len(efp) == 32
    int(efp, 16)


@pytest.mark.parametrize("name", ["dc", "custom"])
def test_analyser_free_vectors_ignore_jitter_path(name):
    vector = get_vector(name)
    assert vector.canonical_path("t3.d1.m1.p1") == "-"
    assert vector.render(STACK, "t3.d1.m1.p1") == vector.render(STACK, None)


@pytest.mark.parametrize("name", ["fft", "hybrid", "merged", "am", "fm"])
def test_analyser_vectors_feel_jitter(name):
    vector = get_vector(name)
    ref = vector.render(STACK, REFERENCE_PATH)
    assert vector.render(STACK, None) == ref  # None means reference
    for path in ("t1.d0.m0.p0", "t0.d0.m1.p0", "t0.d0.m0.p1"):
        assert vector.render(STACK, path) != ref


@pytest.mark.parametrize("name", sorted(AUDIO_VECTORS))
def test_audio_vector_has_one_render_path(name):
    """Each audio vector inherits exactly one of the two readouts and adds
    no renderer of its own, so ``render`` is its batch of one."""
    cls = type(get_vector(name))
    readouts = [readout for readout in (AnalyserVector, SampleSumVector)
                if issubclass(cls, readout)]
    assert len(readouts) == 1
    assert cls.uses_analyser is (readouts[0] is AnalyserVector)
    for own in cls.__mro__[: cls.__mro__.index(readouts[0])]:
        assert not {"_features", "_features_batch", "render",
                    "render_batch"} & set(vars(own))


@pytest.mark.parametrize("name", ["fft", "hybrid", "merged", "am", "fm"])
def test_analyser_vectors_reject_unknown_paths_before_rendering(
        name, monkeypatch):
    """A string outside ``PATHS`` would give an existing eFP a second cache
    key: every analyser vector refuses it before building a graph."""
    def no_render(*args):
        raise AssertionError("rendered a batch holding an unknown path")

    monkeypatch.setattr(vector_base, "_render", no_render)
    vector = get_vector(name)
    for path in UNKNOWN_PATHS:
        with pytest.raises(ValueError, match="malformed jitter path"):
            vector.render(STACK, path)
        with pytest.raises(ValueError, match="malformed jitter path"):
            vector.render_batch(STACK, [REFERENCE_PATH, path])


@pytest.mark.parametrize("name", ["dc", "custom"])
def test_analyser_free_vectors_never_parse_paths(name, monkeypatch):
    """dc and custom never read the analyser, so no path string reaches
    ``parse_path``: every string, known or not, is the one key ``"-"``."""
    def no_parse(path):
        raise AssertionError(f"parsed {path!r}")

    monkeypatch.setattr(vector_base, "parse_path", no_parse)
    vector = get_vector(name)
    paths = [None, REFERENCE_PATH, "t3.d1.m1.p1", *UNKNOWN_PATHS]
    assert {vector.canonical_path(p) for p in paths} == {"-"}
    assert vector.render_batch(STACK, paths) \
        == [vector.render(STACK, None)] * len(paths)


def test_collect_samples_paths():
    vector = get_vector("fft")
    quiet = vector.render(STACK, sample_path(np.random.default_rng(1), 0.0))
    assert quiet == vector.render(STACK, REFERENCE_PATH)
    rng = np.random.default_rng(2)
    observed = {vector.render(STACK, sample_path(rng, 0.95))
                for _ in range(12)}
    assert len(observed) >= 2  # heavy load -> fickle


def test_fft_family_shares_fft_sensitivity_dc_does_not():
    """Stacks that differ only in FFT backend must collide on DC (it never
    runs an FFT) and separate on the analyser vectors — the paper's 'the
    discriminatory cause is the FFT operation alone'."""
    a = AudioStack("blink", "ucrt", "radix2", "blink")
    b = AudioStack("blink", "ucrt", "splitradix", "blink")
    assert get_vector("dc").render(a, None) == get_vector("dc").render(b, None)
    assert get_vector("fft").render(a, None) != get_vector("fft").render(b, None)


def test_new_sum_vectors_share_dc_fft_blindness():
    """custom sums time-domain samples like dc, so FFT-only stack changes
    cannot separate it; the new analyser vectors must separate."""
    a = AudioStack("blink", "ucrt", "radix2", "blink")
    b = AudioStack("blink", "ucrt", "splitradix", "blink")
    assert get_vector("custom").render(a, None) \
        == get_vector("custom").render(b, None)
    for name in ("merged", "am", "fm"):
        assert get_vector(name).render(a, None) \
            != get_vector(name).render(b, None)


def test_comparator_vectors_render_device_stacks():
    """Comparators fingerprint their own per-device stacks, purely and
    distinctly across different identities."""
    from repro.population.sampler import sample_population
    devices = sample_population(30, seed=5)
    for name in COMPARATOR_VECTORS:
        vector = get_vector(name)
        stacks = [vector.stack_of(d) for d in devices]
        efps = [vector.render(s, vector.canonical_path(None)) for s in stacks]
        assert efps == [vector.render(s, vector.canonical_path(None))
                        for s in stacks]  # pure
        assert all(len(e) == 32 for e in efps)
        # same cache key <=> same eFP (the render is a function of the stack)
        by_key = {}
        for stack, efp in zip(stacks, efps):
            assert by_key.setdefault(stack.cache_key(), efp) == efp
        assert len(set(efps)) == len(by_key) > 1


def test_comparator_stack_of_rejects_bare_devices():
    """Hand-built audio-only devices carry no comparator identities; the
    comparators must say so instead of crashing downstream."""
    from repro.population.device import Device
    bare = Device(user_id="u0", stack=STACK, os="Windows", browser="Chrome",
                  load=0.1)
    for name in ("canvas", "fonts", "useragent"):
        with pytest.raises(ValueError, match="sampler-built"):
            get_vector(name).stack_of(bare)
    # mathjs only needs the audio stack's math backend
    assert get_vector("mathjs").stack_of(bare).cache_key() == "mathjs|ucrt"


def test_mathjs_separates_math_backends_only():
    vector = get_vector("mathjs")
    from repro.vectors.mathjs import MathProbe
    a = vector.render(MathProbe("ucrt"), "-")
    b = vector.render(MathProbe("glibc"), "-")
    c = vector.render(MathProbe("ucrt"), "-")
    assert a != b and a == c
