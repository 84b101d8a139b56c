"""The bulk jitter pass replays the scalar draws exactly.

``draw_path_codes`` reads each user's rng stream as raw 64-bit words and
applies numpy's ``Generator`` consumption rules to a whole block of
users at once; ``_plan`` builds its class table from the resulting path
codes. Both must reproduce, code for code and id for id, what the
scalar definitions (``sample_repertoire`` + ``sample_path`` on a real
``Generator``, and the per-user planning loop below) give. Hypothesis
draws seeds, global user indices, loads, iterations and the analyser
vectors; a fixed example drives a synthetic word stream through Lemire
rejections, prefetch top-ups and ``integers(1)``, against a pure-Python
spec of numpy's rules. ``HYPOTHESIS_PROFILE=deep`` searches longer.

A golden digest pins the bytes of one saved study, so any drift in the
draws, the class table or the renders shows up in tier-1. The streams
come from ``user_seeds``' one-pass seed hash, compared here with
numpy's ``SeedSequence`` state for state and stream for stream; a call
count pins that ``_plan`` keys each shared stack object once.
"""
import dataclasses
import hashlib
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import repro.population.study as study_mod
from repro import RenderCache, run_study
from repro.platform.jitter import (PATHS, REFERENCE_PATH, draw_path_codes,
                                   parse_path, sample_path,
                                   sample_repertoire)
from repro.population.sampler import (sample_population,
                                      sample_population_slice, user_seeds)
from repro.vectors import FULL_BATTERY, get_vector

_MASK32 = 0xFFFFFFFF


class _SpecGenerator:
    """numpy's ``Generator`` draws, in pure Python, over a list of raw
    PCG64 words: ``random()`` takes a word's top 53 bits; ``integers``
    takes uint32s from a half-word buffer (low half of a fresh word,
    then the kept high half) and scales them by Lemire's method."""

    def __init__(self, words):
        self.words = list(words)
        self.used = 0
        self.spare = None

    def _word(self) -> int:
        word = int(self.words[self.used])
        self.used += 1
        return word

    def _uint32(self) -> int:
        if self.spare is not None:
            value, self.spare = self.spare, None
            return value
        word = self._word()
        self.spare = word >> 32
        return word & _MASK32

    def random(self) -> float:
        return (self._word() >> 11) * 2.0 ** -53

    def integers(self, low, high=None) -> int:
        if high is None:
            low, high = 0, low
        n = high - low
        if n == 1:
            return low
        product = self._uint32() * n
        while product & _MASK32 < (1 << 32) % n:
            product = self._uint32() * n
        return low + (product >> 32)


class _WordStream:
    """A bit-generator stand-in serving a fixed word list."""

    def __init__(self, words):
        self.words = list(words)
        self.used = 0

    def random_raw(self, size=None):
        count = 1 if size is None else size
        if self.used + count > len(self.words):
            raise AssertionError("the pass read past the stream's words")
        out = self.words[self.used:self.used + count]
        self.used += count
        return out[0] if size is None else np.array(out, dtype=np.uint64)


def _scalar_paths(rng, load, steps):
    repertoire = sample_repertoire(rng, load)
    return [sample_path(rng, load, repertoire) for _ in range(steps)]


def _stream(seed, index):
    return np.random.PCG64(np.random.SeedSequence(
        [seed, study_mod._STUDY_STREAM, index]))


def test_spec_generator_matches_numpy():
    """The pure-Python spec is numpy's rules, draw for draw."""
    words = _stream(5, 11).random_raw(400).tolist()
    spec = _SpecGenerator(words)
    real = np.random.Generator(_stream(5, 11))
    for n in [4, 3, 1, 5, 6, 2, 7, 1, 3] * 8:
        assert spec.integers(n) == real.integers(n)
        assert spec.random() == real.random()
    assert spec.integers(0, 4) == real.integers(0, 4)


@given(seed=st.integers(0, 2 ** 64 - 1),
       first=st.integers(0, 2 ** 33),
       loads=st.lists(st.floats(0.0, 0.9, exclude_max=True),
                      min_size=1, max_size=6),
       vectors=st.integers(0, 5),
       iterations=st.integers(1, 30))
def test_bulk_draws_equal_scalar_draws(seed, first, loads, vectors,
                                       iterations):
    codes = draw_path_codes([_stream(seed, first + u)
                             for u in range(len(loads))],
                            loads, vectors, iterations)
    assert codes.shape == (len(loads), vectors, iterations)
    assert codes.dtype == np.uint8
    for u, load in enumerate(loads):
        rng = np.random.Generator(_stream(seed, first + u))
        want = _scalar_paths(rng, load, vectors * iterations)
        assert [PATHS[code] for code in codes[u].ravel()] == want


def test_rejections_top_ups_and_single_entry_repertoires():
    """Zero words make every iteration loaded and every uint32 a Lemire
    rejection for n in {3, 5, 6} (and 715827883 rejects for n = 6 too),
    so these streams outrun their prefetch; a one-entry repertoire draws
    ``integers(1)``, which takes nothing from the stream."""
    tail = np.random.PCG64(99).random_raw(600).tolist()
    rejects_six = 715827883 | (715827883 << 32)
    # load -> repertoire size 1 + round(6 * load): 3, 5, 6, 1 and 2
    loads = [1 / 3, 2 / 3, 5 / 6, 0.05, 1 / 6]
    prefixes = [
        tail[:11] + [0] * 40,
        tail[:18] + [0, 0, 0, 7 << 32, 0, 0],
        tail[:21] + [0, rejects_six, rejects_six, 0] + [0] * 30,
        tail[:4] + [0] * 20,
        tail[:7] + [0, 1, 0, 0],
    ]
    vectors, iterations = 2, 3
    words = [prefix + tail[100 + 50 * u:] for u, prefix in enumerate(prefixes)]
    codes = draw_path_codes([_WordStream(w) for w in words], loads,
                            vectors, iterations)
    for u, load in enumerate(loads):
        spec = _SpecGenerator(words[u])
        want = _scalar_paths(spec, load, vectors * iterations)
        assert [PATHS[code] for code in codes[u].ravel()] == want
    # the crafted streams really did outrun the prefetch: the largest
    # repertoire's 21 words, plus one word per iteration and one per two
    # integers() draws
    steps = vectors * iterations
    prefetch = 21 + steps + (steps + 1) // 2
    for u in (0, 2):
        spec = _SpecGenerator(words[u])
        _scalar_paths(spec, loads[u], steps)
        assert spec.used > prefetch


def test_path_codes_decode_to_the_scalar_encoding():
    assert PATHS[0] == REFERENCE_PATH
    assert len(set(PATHS)) == 32
    for code, path in enumerate(PATHS):
        jitter = parse_path(path)
        assert code == (jitter.timing_bucket * 8 + jitter.denormal_flush * 4
                        + jitter.fused_multiply * 2 + jitter.f32_precision)


@given(seed=st.integers(0, 2 ** 64 - 1), start=st.integers(0, 2 ** 33),
       count=st.integers(1, 4))
@example(seed=0, start=0, count=1)
@example(seed=2 ** 32 - 1, start=2 ** 32 - 1, count=1)
@example(seed=0, start=2 ** 32 - 1, count=2)
@example(seed=2 ** 32 - 1, start=0, count=4)
def test_user_seeds_equal_list_entropy(seed, start, count):
    """The one-pass seed hash is numpy's ``SeedSequence`` hash, state
    for state and stream for stream."""
    seeds = list(user_seeds(seed, 0x57D, start, start + count))
    assert len(seeds) == count
    for index, got in enumerate(seeds, start):
        want = np.random.SeedSequence([seed, 0x57D, index])
        assert np.array_equal(got.generate_state(4, np.uint64),
                              want.generate_state(4, np.uint64))
        assert np.array_equal(np.random.PCG64(got).random_raw(8),
                              np.random.PCG64(want).random_raw(8))


def _scalar_plan(run, devices, first_index):
    """The per-user planning loop: one scalar draw per iteration, one
    dict lookup per grid item (the reference ``_plan`` must equal)."""
    grids = {name: np.empty((len(devices), run.iterations), dtype=np.int32)
             for name in run.vectors}
    classes, by_stack = [], {}
    for offset, device in enumerate(devices):
        rng = np.random.default_rng(np.random.SeedSequence(
            [run.seed, study_mod._STUDY_STREAM, first_index + offset]))
        repertoire = sample_repertoire(rng, device.load)
        for name in run.vectors:
            vector = get_vector(name)
            stack = vector.stack_of(device)
            ids = by_stack.setdefault((name, stack.cache_key()), {})
            paths = ([sample_path(rng, device.load, repertoire)
                      for _ in range(run.iterations)]
                     if vector.uses_analyser
                     else [vector.canonical_path(None)])
            for path in dict.fromkeys(paths):
                if path not in ids:
                    ids[path] = len(classes)
                    classes.append((RenderCache.make_key(
                        name, stack.cache_key(), path), (name, stack, path)))
            grids[name][offset] = [ids[path] for path in paths]
    return grids, classes


@st.composite
def plans(draw):
    """A shard of a population, its analyser and comparator vectors in
    random order, loads in [0, 0.9), and the plan's block size."""
    users = draw(st.integers(1, 9))
    total = draw(st.sampled_from([users, 50, 2 ** 33]))
    first = draw(st.integers(0, total - users))
    seed = draw(st.integers(0, 2 ** 64 - 1))
    devices = sample_population_slice(total, seed % 2 ** 32, first,
                                      first + users)
    loads = draw(st.lists(st.floats(0.0, 0.9, exclude_max=True),
                          min_size=users, max_size=users))
    devices = [dataclasses.replace(d, load=load)
               for d, load in zip(devices, loads)]
    order = draw(st.permutations(FULL_BATTERY))
    run = SimpleNamespace(seed=seed, iterations=draw(st.integers(1, 12)),
                          vectors=tuple(order[:draw(st.integers(1, 11))]))
    return run, devices, first, draw(st.sampled_from([1, 2, 4096]))


@given(plans())
def test_plan_equals_scalar_plan(case):
    run, devices, first, block = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(study_mod, "_PLAN_BLOCK", block)
        grids, classes = study_mod._plan(run, devices, first_index=first)
    want_grids, want_classes = _scalar_plan(run, devices, first)
    assert classes == want_classes
    for name in run.vectors:
        assert grids[name].dtype == np.int32
        assert np.array_equal(grids[name], want_grids[name])
        # an analyser-free row is one class id, broadcast (not copied)
        # over the iterations
        if not get_vector(name).uses_analyser:
            assert grids[name].strides[1] == 0 or run.iterations == 1


def test_plan_keys_each_stack_object_once(monkeypatch):
    """``_plan`` calls ``stack_of`` once per distinct object of the field
    a vector reads (the sampler shares stack objects), not once per
    (user, vector)."""
    devices = sample_population(300, 2021)
    calls = Counter()
    for name in FULL_BATTERY:
        vector = get_vector(name)

        def counted(device, name=name, original=vector.stack_of):
            calls[name] += 1
            return original(device)

        monkeypatch.setattr(vector, "stack_of", counted)
    run = SimpleNamespace(seed=2021, iterations=30, vectors=FULL_BATTERY)
    study_mod._plan(run, devices)
    for name in FULL_BATTERY:
        field = get_vector(name).stack_field
        distinct = {id(getattr(device, field)) for device in devices}
        assert 0 < calls[name] <= len(distinct) < len(devices)
    assert sum(calls.values()) < len(devices) * len(FULL_BATTERY)


#: sha256 of the saved dataset of run_study(60, 30, FULL_BATTERY,
#: seed=2021, workers=0), captured before the bulk pass replaced the
#: per-user scalar draws
GOLDEN_SHA256 = \
    "dd821c9591b4920f80927f9c875a225dc3cd9f43cae630278a5af89e95c0d683"


def test_saved_study_bytes_are_pinned(tmp_path):
    dataset = run_study(60, 30, FULL_BATTERY, seed=2021, workers=0)
    path = tmp_path / "study.json"
    dataset.save(str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SHA256
