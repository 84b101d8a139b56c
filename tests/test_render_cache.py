"""RenderCache: bit-identity with uncached renders, LRU behavior,
disabled mode, an in-memory store, recorder binding."""
import builtins
import io
import os

import pytest

from repro import RenderCache, StudyDataset, run_study
from repro.obs import NullRecorder, Recorder
from repro.platform import AudioStack
from repro.vectors import get_vector

STACK = AudioStack("blink", "ucrt", "radix2", "blink")


class TestLRU:
    def test_get_put_and_stats(self):
        cache = RenderCache()
        key = RenderCache.make_key("dc", STACK.cache_key(), "-")
        assert cache.get(key) is None
        cache.put(key, "abc")
        assert cache.get(key) == "abc"
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1
        assert cache.hit_rate == 0.5

    def test_eviction_is_least_recently_used(self):
        cache = RenderCache(capacity=2)
        cache.put("a", "1")
        cache.put("b", "2")
        assert cache.get("a") == "1"  # refresh a
        cache.put("c", "3")           # evicts b
        assert "b" not in cache
        assert cache.get("a") == "1"
        assert cache.get("c") == "3"

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            RenderCache(capacity=0)

    def test_eviction_counter(self):
        cache = RenderCache(capacity=2)
        for i in range(5):
            cache.put(str(i), "v")
        assert cache.evictions == 3
        assert cache.stats()["evictions"] == 3


class TestCounterAPI:
    def test_record_methods_drive_stats(self):
        cache = RenderCache()
        cache.record_hit(2)
        cache.record_miss(3)
        cache.record_eviction()
        stats = cache.stats()
        assert (stats["hits"], stats["misses"]) == (2, 3)
        assert stats["evictions"] == 1
        assert cache.hit_rate == 0.4

    def test_reset_clears_all_counters(self):
        cache = RenderCache()
        cache.record_hit()
        cache.record_miss()
        cache.record_eviction()
        cache.reset_stats()
        assert cache.stats()["hits"] == cache.stats()["misses"] == 0
        assert cache.stats()["evictions"] == 0

    def test_disabled_baseline_uses_miss_counter(self):
        """The disabled-cache study path charges renders through
        record_miss, so its stats line up with the probing path's."""
        cache = RenderCache(disabled=True)
        run_study(user_count=3, iterations=2, vectors=("dc",), seed=1,
                  cache=cache, workers=0)
        assert cache.stats()["misses"] == 6
        assert cache.stats()["hits"] == 0


class TestContains:
    """``in`` routes through the same path as ``get``: it records
    hits/misses and refreshes recency, so membership probes can no
    longer silently skew the LRU order or ``stats()``."""

    def test_probe_counts_hit_and_miss(self):
        cache = RenderCache()
        cache.put("k", "v")
        assert "k" in cache
        assert "absent" not in cache
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_probe_refreshes_recency(self):
        """A probed entry becomes most-recently-used — identical to a
        get — so eviction order reflects probes too."""
        cache = RenderCache(capacity=2)
        cache.put("a", "1")
        cache.put("b", "2")
        assert "a" in cache     # refresh a via membership probe
        cache.put("c", "3")     # must evict b, not a
        assert cache.get("a") == "1"
        assert cache.get("b") is None

    def test_probe_and_get_have_identical_stats_effect(self):
        probed, gotten = RenderCache(), RenderCache()
        for cache in (probed, gotten):
            cache.put("k", "v")
        "k" in probed
        "missing" in probed
        gotten.get("k")
        gotten.get("missing")
        assert probed.stats() == gotten.stats()

    def test_disabled_cache_probe_counts_miss(self):
        cache = RenderCache(disabled=True)
        assert "k" not in cache
        assert cache.stats()["misses"] == 1


class TestBitIdentity:
    def test_cached_render_equals_uncached(self):
        """The acceptance property: for the same cache key the cached value
        is bit-identical to a fresh render."""
        cache = RenderCache()
        for name in ("dc", "fft", "hybrid"):
            vector = get_vector(name)
            for path in (None, "t1.d1.m0.p0"):
                key = RenderCache.make_key(name, STACK.cache_key(),
                                           vector.canonical_path(path))
                fresh = vector.render(STACK, path)
                cache.put(key, fresh)
                assert cache.get(key) == vector.render(STACK, path)

    def test_cached_study_equals_uncached_study(self):
        kwargs = dict(user_count=8, iterations=4, vectors=("dc", "fft"),
                      seed=7, workers=0)
        cached = run_study(cache=RenderCache(), **kwargs)
        uncached = run_study(cache=RenderCache(disabled=True), **kwargs)
        assert cached == uncached

    def test_cache_smaller_than_the_class_count(self, tmp_path):
        """A cache that evicts during the run cannot change the dataset:
        the study assembles from its own eFPs and never reads the cache
        back (here 8 entries serve 48 classes)."""
        kwargs = dict(user_count=40, iterations=6, vectors=("dc", "fft"),
                      seed=3, workers=0)
        cache = RenderCache(capacity=8)
        small = run_study(cache=cache, **kwargs)
        assert cache.evictions > 0
        assert small == run_study(cache=RenderCache(), **kwargs)
        path = str(tmp_path / "small.json")
        small.save(path)
        assert StudyDataset.load(path) == small


class TestDisabled:
    def test_disabled_never_stores(self):
        cache = RenderCache(disabled=True)
        cache.put("k", "v")
        assert cache.get("k") is None
        assert cache.stats()["entries"] == 0
        assert cache.misses == 1

    def test_disabled_study_counts_every_render(self):
        cache = RenderCache(disabled=True)
        run_study(user_count=3, iterations=2, vectors=("dc",), seed=1,
                  cache=cache, workers=0)
        assert cache.misses == 3 * 2


class TestInMemoryOnly:
    def test_disabled_is_keyword_only(self):
        """A second positional value (where a file path used to go) is
        refused rather than read as ``disabled``."""
        with pytest.raises(TypeError):
            RenderCache(8, "renders.json")
        assert RenderCache(8, disabled=True).disabled is True

    def test_touches_no_files(self, monkeypatch):
        def no_io(*args, **kwargs):
            raise AssertionError("RenderCache opened a file")

        for module, name in ((builtins, "open"), (io, "open"), (os, "open"),
                             (os, "replace")):
            monkeypatch.setattr(module, name, no_io)
        cache = RenderCache(capacity=2)
        cache.put("a", "1")
        cache.put("b", "2")
        cache.put("c", "3")
        assert "a" not in cache and cache.get("c") == "3"
        cache.reset_stats()
        assert len(cache) == 2

    def test_stats_hold_in_memory_counters_only(self):
        cache = RenderCache(capacity=4)
        assert cache.stats() == {"hits": 0, "misses": 0, "hit_rate": 0.0,
                                 "entries": 0, "capacity": 4,
                                 "disabled": False, "evictions": 0}


class TestRecorderBinding:
    def test_misses_are_the_only_cache_events(self):
        """Binding emits nothing; a miss emits ``cache.miss`` with its
        count; hits and evictions stay silent."""
        recorder = Recorder()
        cache = RenderCache(capacity=1)
        cache.attach_recorder(recorder)
        assert recorder.events == []
        cache.get("a")
        cache.put("a", "1")
        cache.get("a")
        cache.put("b", "2")
        cache.record_miss(3)
        assert [(e["kind"], e["n"]) for e in recorder.events] \
            == [("cache.miss", 1), ("cache.miss", 3)]
        assert (cache.hits, cache.misses, cache.evictions) == (1, 4, 1)
        cache.detach_recorder()
        cache.get("a")
        assert len(recorder.events) == 2

    def test_disabled_recorder_is_never_called(self):
        class Disabled(NullRecorder):
            def event(self, kind, **fields):
                raise AssertionError("a disabled recorder was called")

        cache = RenderCache()
        cache.attach_recorder(Disabled())
        cache.get("a")
        cache.record_miss(2)
        assert cache.misses == 3
