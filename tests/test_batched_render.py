"""Batched rendering contracts.

The whole batching optimisation rests on one invariant: a batch row is
*bit-identical* to the same path rendered alone (``render``, a batch of
one) — same digests, same dataset bytes, at any batch composition,
batch split, worker count, or FFT backend. These tests pin that
invariant, and that ``render_batch`` reads each distinct path out once.
The study-level serial reference is the same driver at
``_MAX_BATCH = 1``: one row per engine pass.
"""
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.population.study as study_mod
from repro import RenderCache, run_study
from repro.platform import AudioStack, default_stack_pool
from repro.platform.jitter import (PATHS, parse_path, sample_path,
                                   sample_repertoire)
from repro.population.sampler import sample_population
from repro.vectors import AUDIO_VECTORS, FULL_BATTERY, get_vector
from repro.webaudio.fft import FFT_BACKENDS, get_fft_backend

BACKENDS = sorted(FFT_BACKENDS)
_STACKS = sorted({row[0] for row in default_stack_pool()},
                 key=lambda stack: stack.cache_key())


def _random_paths(rng, count):
    """Jitter paths under heavy load: duplicates and the reference path
    both occur, so batches mix repeated and distinct rows."""
    repertoire = sample_repertoire(rng, 0.9)
    return [sample_path(rng, 0.9, repertoire) for _ in range(count)]


class TestBatchedDigestsMatchSerial:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("name", sorted(AUDIO_VECTORS))
    def test_randomized_paths_every_backend(self, name, backend):
        vector = get_vector(name)
        stack = AudioStack("blink", "ucrt", backend, "blink")
        rng = np.random.default_rng(hash((name, backend)) % 2**32)
        paths = _random_paths(rng, 6)
        batched = vector.render_batch(stack, paths)
        assert batched == [vector.render(stack, p) for p in paths]

    def test_empty_batch(self):
        stack = AudioStack("blink", "ucrt", "radix2", "blink")
        assert get_vector("fft").render_batch(stack, []) == []

    def test_malformed_path_is_rejected(self):
        """A path outside ``PATHS`` fails at parse time, naming the path,
        not inside the readout."""
        stack = AudioStack("blink", "ucrt", "radix2", "blink")
        with pytest.raises(ValueError, match="malformed jitter path"):
            get_vector("fft").render_batch(stack, [None, "t-1.d0.m0.p0"])

    def test_batch_rows_do_not_interact(self):
        """A row's digest must not depend on which rows share its batch."""
        vector = get_vector("fft")
        stack = AudioStack("gecko", "glibc", "splitradix", "gecko")
        rng = np.random.default_rng(77)
        paths = _random_paths(rng, 5)
        alone = vector.render_batch(stack, [paths[2]])[0]
        together = vector.render_batch(stack, paths)[2]
        shuffled = vector.render_batch(stack, paths[::-1])[2]
        assert alone == together == shuffled


@st.composite
def _repeated_paths(draw):
    """1-5 distinct draws from ``PATHS`` plus None (None and the
    reference path share a canonical path), each taken 1-4 times, in a
    random order."""
    distinct = draw(st.lists(st.sampled_from(PATHS + (None,)), min_size=1,
                             max_size=5, unique=True))
    rows = [path for path in distinct
            for _ in range(draw(st.integers(1, 4)))]
    return draw(st.permutations(rows))


@given(name=st.sampled_from(sorted(AUDIO_VECTORS) + ["mathjs"]),
       stack=st.sampled_from(_STACKS), backend=st.sampled_from(BACKENDS),
       paths=_repeated_paths())
def test_batch_renders_each_distinct_path_once(name, stack, backend, paths):
    """Every row equals its path rendered alone, while the readout sees
    each distinct canonical path exactly once, in first-seen order."""
    vector = get_vector(name)
    stack = vector.stack_of(SimpleNamespace(
        stack=replace(stack, fft_backend=backend), user_id="u0"))
    alone = {path: vector.render(stack, path) for path in set(paths)}
    seen = []
    features_batch = vector._features_batch

    def spy(stack, jitters):
        seen.append(list(jitters))
        return features_batch(stack, jitters)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(vector, "_features_batch", spy)
        batched = vector.render_batch(stack, paths)
    assert batched == [alone[path] for path in paths]
    canonical = dict.fromkeys(vector.canonical_path(p) for p in paths)
    assert seen == [[parse_path(p) if vector.uses_analyser else None
                     for p in canonical]]


class TestBatchedFFTBitIdentity:
    """fft((B, n)) rows must equal fft((n,)) of each row, bit for bit."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_pow2(self, backend):
        fft = get_fft_backend(backend)
        rng = np.random.default_rng(11)
        x = rng.standard_normal((4, 256))
        rows = fft.fft(x)
        for b in range(x.shape[0]):
            np.testing.assert_array_equal(rows[b], fft.fft(x[b]))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_non_pow2_via_bluestein(self, backend):
        fft = get_fft_backend(backend)
        rng = np.random.default_rng(12)
        x = rng.standard_normal((3, 60))
        rows = fft.fft(x)
        for b in range(x.shape[0]):
            np.testing.assert_array_equal(rows[b], fft.fft(x[b]))


STUDY = dict(user_count=6, iterations=3, vectors=("dc", "fft", "hybrid"),
             seed=13)


def _serial_study(**kw):
    """The driver with one row per engine pass — the serial reference."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(study_mod, "_MAX_BATCH", 1)
        return run_study(cache=RenderCache(), workers=0, **kw)


class TestGroupingNeverChangesTheDataset:
    @pytest.fixture(scope="class")
    def serial(self):
        return _serial_study(**STUDY)

    @pytest.mark.parametrize("workers", [0, 1, 2])
    def test_batched_equals_serial_at_any_worker_count(self, serial, workers):
        batched = run_study(cache=RenderCache(), workers=workers, **STUDY)
        assert batched == serial

    @pytest.mark.parametrize("workers", [0, 2])
    def test_disabled_cache_baselines_agree(self, serial, workers):
        cold = run_study(cache=RenderCache(disabled=True), workers=workers,
                         **STUDY)
        assert cold == serial

    def test_dataset_json_bytes_identical(self, serial, tmp_path):
        """Not just ==: the serialized artifact is byte-for-byte stable."""
        blobs = set()
        for workers in (0, 2):
            dataset = run_study(cache=RenderCache(), workers=workers, **STUDY)
            path = tmp_path / f"w{workers}.json"
            dataset.save(str(path))
            blobs.add(path.read_bytes())
        serial_path = tmp_path / "serial.json"
        serial.save(str(serial_path))
        blobs.add(serial_path.read_bytes())
        assert len(blobs) == 1

    def test_sub_batch_split_is_invisible(self, serial, monkeypatch):
        """Forcing tiny sub-batches (_MAX_BATCH=2) must not change bytes —
        splitting a group can only change amortization, never rows."""
        monkeypatch.setattr(study_mod, "_MAX_BATCH", 2)
        tiny = run_study(cache=RenderCache(), workers=0, **STUDY)
        assert tiny == serial

    def test_full_battery_batched_equals_serial(self):
        """All 11 vectors — audio and comparator — through the driver:
        grouping by (vector, stack) must not change a single byte."""
        kw = dict(user_count=12, iterations=3, vectors=FULL_BATTERY, seed=29)
        serial = _serial_study(**kw)
        batched = run_study(cache=RenderCache(), workers=0, **kw)
        assert batched == serial


def _group_jobs_per_row(keyed_classes, measuring):
    """The grouping ``_group_jobs`` replaced: one ``(key, (vector, stack,
    path))`` reference per row, keyed and looked up, and a new member
    tuple built, for every row (the reference the class-at-a-time
    grouping must equal)."""
    groups = {}
    for key, (vector_name, stack, path) in keyed_classes:
        entry = groups.setdefault((vector_name, stack.cache_key()),
                                  (vector_name, stack, []))
        entry[2].append((key, path))
    jobs = []
    for vector_name, stack, members in groups.values():
        for lo in range(0, len(members), study_mod._MAX_BATCH):
            measure = (study_mod._MEASURE_OFF if not measuring else
                       study_mod._MEASURE_NODES if lo == 0
                       else study_mod._MEASURE_TIME)
            jobs.append((vector_name, stack,
                         members[lo:lo + study_mod._MAX_BATCH], measure))
    return jobs


@pytest.mark.parametrize("measuring", [False, True],
                         ids=["no-recorder", "recorder"])
@pytest.mark.parametrize("cache", ["off", "cold"])
def test_group_jobs_equals_per_row_grouping(cache, measuring, monkeypatch):
    """Grouping class ids job for job as the per-row grouping does: the
    same jobs in the same order, with the same members and measure
    levels, for the cache-off rows (every grid item, in grid order) and
    a cold cache's misses (every class, in id order). Sub-batches of 3
    rows split the larger groups."""
    monkeypatch.setattr(study_mod, "_MAX_BATCH", 3)
    run = SimpleNamespace(seed=5, iterations=6, vectors=FULL_BATTERY)
    grids, classes = study_mod._plan(run, sample_population(40, 5))
    if cache == "off":
        rows = np.stack([grids[name] for name in run.vectors],
                        axis=1).ravel().tolist()
    else:
        rows = list(range(len(classes)))
    jobs = study_mod._group_jobs(classes, rows, measuring)
    assert jobs == _group_jobs_per_row([classes[cid] for cid in rows],
                                       measuring)
    assert sum(len(job[2]) for job in jobs) == len(rows)
