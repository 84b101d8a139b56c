"""RenderCache: bit-identity with uncached renders, LRU behavior, disk
round-trip, disabled mode."""
import json

import pytest

from repro import RenderCache, StudyDataset, run_study
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
        cache.record_disk_load(4)
        stats = cache.stats()
        assert (stats["hits"], stats["misses"]) == (2, 3)
        assert (stats["evictions"], stats["disk_loads"]) == (1, 4)
        assert cache.hit_rate == 0.4

    def test_reset_clears_all_counters(self):
        cache = RenderCache()
        cache.record_hit()
        cache.record_miss()
        cache.record_eviction()
        cache.record_disk_load()
        cache.reset_stats()
        assert cache.stats()["hits"] == cache.stats()["misses"] == 0
        assert cache.stats()["evictions"] == cache.stats()["disk_loads"] == 0

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


class TestDisk:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "render_cache.json")
        cache = RenderCache(disk_path=path)
        cache.put("k1", "v1")
        cache.put("k2", "v2")
        cache.persist()

        reloaded = RenderCache(disk_path=path)
        assert reloaded.get("k1") == "v1"
        assert reloaded.get("k2") == "v2"

    def test_corrupt_file_ignored(self, tmp_path):
        path = tmp_path / "render_cache.json"
        path.write_text("{not json")
        cache = RenderCache(disk_path=str(path))
        assert len(cache) == 0

    def test_corrupt_file_quarantined_and_counted(self, tmp_path):
        """A broken cache file is moved aside as ``*.corrupt`` (so the
        next persist starts clean and the wreckage stays inspectable) and
        shows up in ``stats()``."""
        path = tmp_path / "render_cache.json"
        path.write_text("{not json")
        cache = RenderCache(disk_path=str(path))
        assert cache.stats()["corrupt_entries"] == 1
        assert not path.exists()
        quarantined = tmp_path / "render_cache.json.corrupt"
        assert quarantined.read_text() == "{not json"
        # the quarantined file never blocks a fresh persist + reload
        cache.put("k", "v")
        cache.persist()
        assert RenderCache(disk_path=str(path)).get("k") == "v"

    def test_wrong_shape_file_quarantined(self, tmp_path):
        path = tmp_path / "render_cache.json"
        path.write_text(json.dumps(["not", "a", "cache"]))
        cache = RenderCache(disk_path=str(path))
        assert len(cache) == 0
        assert cache.corrupt_entries == 1
        assert (tmp_path / "render_cache.json.corrupt").exists()

    def test_per_entry_damage_skips_entry_and_counts(self, tmp_path):
        """Damage confined to individual entries (non-string values) drops
        just those entries — the healthy ones still load — and each one
        is counted, without quarantining the whole file."""
        path = tmp_path / "render_cache.json"
        path.write_text(json.dumps(
            {"format": 1, "entries": {"good": "efp", "bad": 7, "worse": None}}))
        cache = RenderCache(disk_path=str(path))
        assert cache.get("good") == "efp"
        assert len(cache) == 1
        assert cache.stats()["corrupt_entries"] == 2
        assert path.exists()  # file itself is kept: most of it was fine

    def test_reset_stats_clears_corrupt_counter(self, tmp_path):
        path = tmp_path / "render_cache.json"
        path.write_text("garbage")
        cache = RenderCache(disk_path=str(path))
        assert cache.corrupt_entries == 1
        cache.reset_stats()
        assert cache.stats()["corrupt_entries"] == 0

    def test_persist_is_atomic_json(self, tmp_path):
        path = tmp_path / "c.json"
        cache = RenderCache(disk_path=str(path))
        cache.put("k", "v")
        cache.persist()
        payload = json.loads(path.read_text())
        assert payload["entries"] == {"k": "v"}
        assert list(tmp_path.iterdir()) == [path]  # no stray temp files

    def test_no_disk_path_is_noop(self):
        RenderCache().persist()  # must not raise

    def test_persist_creates_missing_directory(self, tmp_path):
        """benchmarks/.cache/ is generated state (untracked); the cache
        must create its directory on demand."""
        path = str(tmp_path / "nested" / "dir" / "cache.json")
        cache = RenderCache(disk_path=path)
        cache.put("k", "v")
        cache.persist()
        assert RenderCache(disk_path=path).get("k") == "v"

    def test_disk_load_counter(self, tmp_path):
        path = str(tmp_path / "cache.json")
        cache = RenderCache(disk_path=path)
        cache.put("k1", "v1")
        cache.put("k2", "v2")
        cache.persist()
        reloaded = RenderCache(disk_path=path)
        assert reloaded.disk_loads == 2
        assert reloaded.stats()["disk_loads"] == 2
        assert RenderCache(disk_path=path, disabled=True).disk_loads == 0


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
