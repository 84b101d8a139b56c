"""Platform layer: stacks are frozen/hashable identities; math backends
diverge at the ulp level; jitter paths round-trip and transform."""
import dataclasses

import numpy as np
import pytest

from repro.platform import (
    AudioStack,
    MATH_BACKENDS,
    REFERENCE_PATH,
    default_stack_pool,
    get_math_backend,
    parse_path,
    sample_load,
    sample_path,
)
from repro.platform.jitter import PATHS, JitterPath, sample_repertoire
from repro.webaudio import ENGINE_VERSION


class TestAudioStack:
    def test_frozen_and_hashable(self):
        stack = AudioStack("blink", "ucrt", "radix2", "blink")
        with pytest.raises(Exception):
            stack.engine = "gecko"
        assert stack == AudioStack("blink", "ucrt", "radix2", "blink")
        assert len({stack, AudioStack("blink", "ucrt", "radix2", "blink")}) == 1

    def test_cache_key_is_stable_and_versioned(self):
        stack = AudioStack("blink", "ucrt", "radix2", "blink", 48000)
        key = stack.cache_key()
        assert key == stack.cache_key()
        assert key.startswith(f"e{ENGINE_VERSION}|")
        assert "48000" in key

    def test_cache_key_separates_every_field(self):
        base = AudioStack("blink", "ucrt", "radix2", "blink")
        variants = [
            AudioStack("gecko", "ucrt", "radix2", "blink"),
            AudioStack("blink", "glibc", "radix2", "blink"),
            AudioStack("blink", "ucrt", "bluestein", "blink"),
            AudioStack("blink", "ucrt", "radix2", "gecko"),
            AudioStack("blink", "ucrt", "radix2", "blink", 48000),
            AudioStack("blink", "ucrt", "radix2", "blink", 44100, 2),
        ]
        keys = {base.cache_key()} | {v.cache_key() for v in variants}
        assert len(keys) == len(variants) + 1

    def test_realize_wires_backends(self):
        stack = AudioStack("gecko", "glibc", "splitradix", "gecko")
        config = stack.realize()
        assert config.math.name == "glibc"
        assert config.fft.name == "splitradix"
        assert config.compressor.knee_db == 28.0

    def test_realize_carries_no_jitter(self):
        """Jitter is applied at the analyser readout only, so the engine
        config a stack realizes holds none and ``realize`` takes none."""
        stack = AudioStack("gecko", "glibc", "splitradix", "gecko")
        config = stack.realize()
        assert [f.name for f in dataclasses.fields(config)] \
            == ["math", "fft", "compressor"]
        with pytest.raises(TypeError):
            stack.realize(parse_path("t1.d0.m0.p0"))

    def test_pool_shape(self):
        pool = default_stack_pool()
        assert len(pool) >= 20
        # Edge deliberately shares Chrome's stack (the Table 5 collapse)
        keys = [s.cache_key() for (s, _, _, _) in pool]
        assert len(set(keys)) < len(keys)
        assert all(w > 0 for (_, _, _, w) in pool)


class TestMathBackends:
    def test_reference_backend_is_exact(self):
        x = np.linspace(0.0, 3.0, 100)
        assert np.array_equal(get_math_backend("ucrt").sin(x), np.sin(x))

    def test_variants_diverge_by_ulps(self):
        x = np.linspace(0.1, 3.0, 100)
        outputs = {name: MATH_BACKENDS[name].sin(x).tobytes() for name in MATH_BACKENDS}
        assert len(set(outputs.values())) == len(MATH_BACKENDS)
        # ... but only by ulps: numerically they all agree tightly
        for name in MATH_BACKENDS:
            assert np.allclose(MATH_BACKENDS[name].sin(x), np.sin(x), rtol=1e-13)

    def test_all_operations_covered(self):
        backend = get_math_backend("bionic")
        x = np.array([0.5, 1.5])
        for op in ("sin", "cos", "exp", "log10", "tanh"):
            assert getattr(backend, op)(x).shape == x.shape
        assert backend.pow(x, 2.0).shape == x.shape

    def test_unknown_backend_raises(self):
        with pytest.raises(KeyError):
            get_math_backend("quickmath")


class TestJitter:
    def test_reference_path_round_trip(self):
        path = parse_path(REFERENCE_PATH)
        assert path == JitterPath()
        assert path.encode() == REFERENCE_PATH
        assert path.readout_offset == 0

    def test_parse_rejects_garbage(self):
        for garbage in (
            "under-load",
            "t1.dX.mY.pZ",   # flags other than 0 or 1
            "x1.d0.m0.p0",   # no timing prefix
            "t-1.d0.m0.p0",  # negative timing bucket
            "t9.d0.m0.p0",   # PATHS holds only t0-t3
        ):
            with pytest.raises(ValueError, match="malformed jitter path"):
                parse_path(garbage)

    def test_parse_rejects_non_strings(self):
        for value in (None, 0, b"t0.d0.m0.p0", ["t0.d0.m0.p0"], JitterPath()):
            with pytest.raises(ValueError, match="malformed jitter path"):
                parse_path(value)

    def test_paths_follow_their_codes(self):
        """``PATHS[code]`` is the path whose bits are ``t*8 + d*4 + m*2 + p``,
        the code the bulk draw emits, and each entry parses to itself."""
        assert len(PATHS) == len(set(PATHS)) == 32
        assert PATHS[0] == REFERENCE_PATH
        for code, path in enumerate(PATHS):
            jitter = parse_path(path)
            assert jitter == JitterPath(code >> 3, bool(code & 4),
                                        bool(code & 2), bool(code & 1))
            assert jitter.encode() == path

    def test_transforms_change_bits(self):
        rng = np.random.default_rng(3)
        frames = rng.standard_normal(2048) * 1e-3
        ref = JitterPath().transform(frames)
        assert np.array_equal(ref, frames)
        for jp in (JitterPath(fused_multiply=True), JitterPath(f32_precision=True)):
            assert jp.transform(frames).tobytes() != frames.tobytes()
        flushed = JitterPath(denormal_flush=True).transform(
            np.array([1e-15, 0.5, -1e-20]))
        assert np.array_equal(flushed, [0.0, 0.5, 0.0])

    def test_zero_load_always_reference(self):
        rng = np.random.default_rng(11)
        assert all(sample_path(rng, 0.0) == REFERENCE_PATH for _ in range(50))

    def test_heavy_load_perturbs(self):
        rng = np.random.default_rng(12)
        repertoire = sample_repertoire(rng, 0.9)
        paths = {sample_path(rng, 0.9, repertoire) for _ in range(100)}
        assert len(paths) >= 2
        assert paths - {REFERENCE_PATH}  # at least one perturbed path
        assert paths - {REFERENCE_PATH} <= set(repertoire)

    def test_sample_load_bounded(self):
        rng = np.random.default_rng(13)
        loads = [sample_load(rng) for _ in range(200)]
        assert all(0.0 <= l < 1.0 for l in loads)
