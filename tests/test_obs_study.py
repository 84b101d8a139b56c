"""Observability x study driver contracts:

1. metric merging across process-pool workers — a seeded run with
   workers=2 reports the same aggregate counters (and a bit-identical
   dataset) as the same run inline;
2. the null-recorder fast path — with observability disabled, run_study
   makes a constant number of recorder calls per run and zero per render;
3. what a cold run and then a warm run over one cache report: the
   ``study.end`` event, ``cache.stats()`` and the run report's cache
   section.
"""
import json

import pytest

from repro import RenderCache, run_study
from repro.obs import NullRecorder, Recorder

# 4 users x 2 iterations x 3 vectors = 24 grid items in 6 (vector, stack)
# batch groups: more than one, so workers=2 really exercises the
# ProcessPoolExecutor merge path.
POOLED = dict(user_count=4, iterations=2, vectors=("dc", "fft", "hybrid"),
              seed=5)


def _aggregates(recorder):
    return {
        "counters": dict(recorder.counters),
        "histogram_counts": {name: hist.count
                             for name, hist in recorder.histograms.items()},
        "node_calls": {stack: {label: entry["calls"]
                               for label, entry in nodes.items()}
                       for stack, nodes in recorder.node_profile.items()},
    }


class TestPoolMerge:
    @pytest.fixture(scope="class")
    def runs(self):
        results = {}
        for workers in (0, 2):
            recorder = Recorder()
            cache = RenderCache(disabled=True)
            dataset = run_study(cache=cache, workers=workers,
                                recorder=recorder, **POOLED)
            results[workers] = (dataset, recorder, cache)
        return results

    def test_datasets_bit_identical(self, runs):
        assert runs[0][0] == runs[2][0]

    def test_aggregate_counters_identical(self, runs):
        assert _aggregates(runs[0][1]) == _aggregates(runs[2][1])

    def test_cache_counters_identical(self, runs):
        assert runs[0][2].stats() == runs[2][2].stats()

    def test_every_render_was_measured(self, runs):
        _, recorder, cache = runs[2]
        assert recorder.counters["render.renders"] == 24 == cache.misses
        per_vector = sum(
            recorder.histograms[f"render.latency_s.{v}"].count
            for v in POOLED["vectors"])
        assert per_vector == 24

    def test_profiled_set_is_deterministic(self, runs):
        # first job per (vector, stack) carries the node profiler; the
        # planning order fixes that set regardless of worker count
        assert runs[0][1].node_profile.keys() == runs[2][1].node_profile.keys()
        assert runs[0][1].counters["render.profiled_renders"] == \
            runs[2][1].counters["render.profiled_renders"]

    def test_cached_run_counters_survive_the_pool(self):
        results = {}
        for workers in (0, 2):
            recorder = Recorder()
            run_study(user_count=30, iterations=4, vectors=("fft",), seed=9,
                      cache=RenderCache(), workers=workers, recorder=recorder)
            results[workers] = _aggregates(recorder)
        assert results[0] == results[2]
        # batched grouping ships one pooled task per (vector, stack) group:
        # enough groups to engage the pool, and every render accounted for
        counters = results[2]["counters"]
        assert counters["pool.jobs"] == counters["render.batches"] >= 4
        assert results[2]["histogram_counts"]["render.batch_size"] == \
            counters["render.batches"]


class SpyRecorder(NullRecorder):
    """Claims to be disabled (so the driver takes the fast path) while
    counting every recorder call the driver still makes. NullRecorder has
    empty __slots__, so the tallies live on the class."""

    span_calls = 0
    counter_calls = 0
    observe_calls = 0
    profile_calls = 0

    def span(self, name, **attrs):
        SpyRecorder.span_calls += 1
        return super().span(name, **attrs)

    def count(self, name, value=1):
        SpyRecorder.counter_calls += 1

    def observe(self, name, value):
        SpyRecorder.observe_calls += 1

    def record_node_profile(self, stack_key, seconds, calls=None):
        SpyRecorder.profile_calls += 1

    @classmethod
    def reset(cls):
        cls.span_calls = 0
        cls.counter_calls = 0
        cls.observe_calls = 0
        cls.profile_calls = 0


class TestNullFastPath:
    def _run(self, user_count, iterations):
        SpyRecorder.reset()
        dataset = run_study(user_count=user_count, iterations=iterations,
                            vectors=("dc", "fft"), seed=3, workers=0,
                            recorder=SpyRecorder())
        return dataset, (SpyRecorder.span_calls, SpyRecorder.counter_calls,
                         SpyRecorder.observe_calls, SpyRecorder.profile_calls)

    def test_zero_per_render_recorder_calls(self):
        _, small = self._run(user_count=3, iterations=2)
        _, large = self._run(user_count=9, iterations=4)
        # call counts are a constant per run — they must not scale with
        # the grid (6 renders vs 72 renders here)
        assert small == large
        span_calls, counter_calls, observe_calls, profile_calls = large
        assert counter_calls == observe_calls == profile_calls == 0
        assert span_calls <= 4  # plan / render / probe / assemble

    def test_disabled_observability_is_bit_identical(self):
        spy_dataset, _ = self._run(user_count=5, iterations=3)
        plain = run_study(user_count=5, iterations=3, vectors=("dc", "fft"),
                          seed=3, workers=0)
        assert spy_dataset == plain


class TestColdThenWarm:
    """A cold run renders every class; a warm run over the same cache
    renders none. 6 users x 4 iterations x 3 vectors = 72 grid items in
    14 classes. Every grid item is charged as a cache hit at assembly, on
    top of the probe's one lookup per class."""

    STUDY = dict(user_count=6, iterations=4, vectors=("dc", "fft", "canvas"),
                 seed=11, workers=0)

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("cold-warm")
        cache = RenderCache()
        results = {}
        for label in ("cold", "warm"):
            report_path = tmp / f"{label}.json"
            events_path = tmp / f"{label}.jsonl"
            run_study(cache=cache, report_path=str(report_path),
                      event_log_path=str(events_path), **self.STUDY)
            events = [json.loads(line)
                      for line in events_path.read_text().splitlines()]
            results[label] = {
                "end": next(e for e in events if e["kind"] == "study.end"),
                "misses": [e["n"] for e in events
                           if e["kind"] == "cache.miss"],
                "stats": cache.stats(),
                "report_cache": json.loads(report_path.read_text())["cache"],
            }
        return results

    @staticmethod
    def _stats(hits, misses):
        return {"hits": hits, "misses": misses,
                "hit_rate": hits / (hits + misses), "entries": 14,
                "capacity": 100_000, "disabled": False, "evictions": 0}

    @pytest.mark.parametrize("label, rendered", [("cold", 14), ("warm", 0)])
    def test_study_end_counts_rendered_classes(self, runs, label, rendered):
        end = runs[label]["end"]
        assert (end["grid_items"], end["distinct_classes"],
                end["rendered"]) == (72, 14, rendered)

    def test_cold_stats(self, runs):
        assert runs["cold"]["stats"] == self._stats(hits=72, misses=14)
        assert runs["cold"]["misses"] == [1] * 14

    def test_warm_stats(self, runs):
        # stats accumulate over the shared cache: the cold run's 72 hits,
        # then the warm probe's 14 and the warm assembly's 72
        assert runs["warm"]["stats"] == self._stats(hits=158, misses=14)
        assert runs["warm"]["misses"] == []

    @pytest.mark.parametrize("label", ["cold", "warm"])
    def test_report_cache_section_is_the_stats(self, runs, label):
        assert runs[label]["report_cache"] == runs[label]["stats"]
