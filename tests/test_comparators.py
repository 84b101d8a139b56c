"""Comparator stacks and the extended population sampler.

The comparator identities (UA, canvas, fonts) ride the same per-user
seeded rng streams as the audio stack pick, drawn strictly *after* the
original stack/load draws — so pre-existing audio devices (and every
cached audio eFP) stay bit-identical, slicing stays exact, and the
comparator marginals correlate with OS/browser the way the models say.
"""
import json

import numpy as np
import pytest

from repro.platform import REFERENCE_PATH
from repro.platform.browsers import (BROWSER_VERSIONS, OS_BUILDS,
                                     pick_weighted, sample_ua)
from repro.platform.canvas_stack import GPU_POOLS, sample_canvas
from repro.platform.font_stack import BASE_FONTS, FONT_PACKS, sample_fonts
from repro.population.sampler import (sample_population,
                                      sample_population_slice)
from repro.vectors import COMPARATOR_VECTORS, get_vector


class TestWeightedDraws:
    def test_pick_weighted_is_deterministic_and_exhaustive(self):
        table = (("a", 0.7), ("b", 0.2), ("c", 0.1))
        rng = np.random.default_rng(3)
        picks = [pick_weighted(rng, table) for _ in range(400)]
        assert set(picks) == {"a", "b", "c"}
        counts = {k: picks.count(k) for k in "abc"}
        assert counts["a"] > counts["b"] > counts["c"]

    @pytest.mark.parametrize("table", [
        (("a", 0.7), ("b", 0.2), ("c", 0.1)),
        [("x", 3.0), ("y", 0.0), ("z", 1.0)],
        [("only", 2.5)],
        BROWSER_VERSIONS["Chrome"], OS_BUILDS["Android"],
        GPU_POOLS["Windows"]])
    def test_pick_weighted_matches_per_pick_cdf(self, table):
        """The cached cumulative table picks exactly what a CDF rebuilt
        for every pick (and searched with np.searchsorted) picks."""
        rng, again = np.random.default_rng(17), np.random.default_rng(17)
        weights = np.array([w for _, w in table], dtype=np.float64)
        cdf = np.cumsum(weights / weights.sum())
        for _ in range(300):
            index = min(int(np.searchsorted(cdf, again.random(),
                                            side="right")), len(table) - 1)
            assert pick_weighted(rng, table) == table[index][0]

    def test_pick_weighted_keys_tables_by_content(self):
        """Equal tables share one cumulative table; a table with the same
        values but other weights gets its own."""
        heavy_a = [("a", 9.0), ("b", 1.0)]
        heavy_b = [("a", 1.0), ("b", 9.0)]
        picks = {name: [pick_weighted(np.random.default_rng(seed), table)
                        for seed in range(200)]
                 for name, table in (("a", heavy_a), ("b", heavy_b),
                                     ("a copy", list(heavy_a)))}
        assert picks["a"] == picks["a copy"]
        assert picks["a"].count("a") > 150 and picks["b"].count("b") > 150

    def test_sample_ua_uses_exactly_two_draws(self):
        """The frozen draw-order contract: UA consumes 2 uniforms."""
        rng1 = np.random.default_rng(9)
        rng2 = np.random.default_rng(9)
        sample_ua(rng1, "Windows", "Chrome")
        rng2.random(), rng2.random()
        assert rng1.random() == rng2.random()

    def test_sample_canvas_uses_exactly_four_draws(self):
        rng1 = np.random.default_rng(10)
        rng2 = np.random.default_rng(10)
        sample_canvas(rng1, "macOS", "Safari")
        for _ in range(4):
            rng2.random()
        assert rng1.random() == rng2.random()

    def test_sample_fonts_uses_one_draw_per_pack(self):
        """One uniform per pack regardless of install outcome, so the
        stream position never depends on earlier pack results."""
        rng1 = np.random.default_rng(11)
        rng2 = np.random.default_rng(11)
        sample_fonts(rng1, "Linux", "Firefox")
        for _ in range(len(FONT_PACKS)):
            rng2.random()
        assert rng1.random() == rng2.random()


class TestComparatorModels:
    def test_ua_correlates_with_os_and_browser(self):
        rng = np.random.default_rng(1)
        ua = sample_ua(rng, "Windows", "Firefox")
        assert ua.os == "Windows" and ua.browser == "Firefox"
        assert ua.os_build in [b for b, _ in OS_BUILDS["Windows"]]
        assert ua.browser_version in [v for v, _ in
                                      BROWSER_VERSIONS["Firefox"]]
        assert "Firefox" in ua.ua_string()
        assert "Windows NT" in ua.ua_string()

    def test_canvas_gpu_pool_follows_os(self):
        rng = np.random.default_rng(2)
        for os_name in GPU_POOLS:
            canvas = sample_canvas(rng, os_name, "Chrome")
            assert canvas.os == os_name
            assert canvas.gpu in [g for g, _ in GPU_POOLS[os_name]]

    def test_fonts_superset_of_base_and_sorted(self):
        rng = np.random.default_rng(4)
        stack = sample_fonts(rng, "macOS", "Safari")
        assert set(BASE_FONTS["macOS"]) <= set(stack.fonts)
        assert list(stack.fonts) == sorted(stack.fonts)

    def test_cache_keys_are_namespaced(self):
        rng = np.random.default_rng(6)
        assert sample_ua(rng, "Linux", "Chrome").cache_key() \
            .startswith("ua|")
        assert sample_canvas(rng, "Linux", "Chrome").cache_key() \
            .startswith("canvas|")
        assert sample_fonts(rng, "Linux", "Chrome").cache_key() \
            .startswith("fonts|")


class TestSamplerIntegration:
    def test_slice_stays_exact_with_comparator_fields(self):
        full = sample_population(40, seed=123)
        part = sample_population_slice(40, 123, 15, 30)
        assert [d.describe() for d in part] \
            == [d.describe() for d in full[15:30]]

    def test_describe_round_trips_exact_load(self):
        """The satellite bugfix: describe() must emit the exact float
        (round(load, 6) silently broke describe/rebuild round-trips)."""
        devices = sample_population(20, seed=77)
        for device in devices:
            desc = device.describe()
            assert desc["load"] == device.load  # bit-exact, not rounded
            # and JSON round-trips it losslessly (repr-based float encoding)
            assert json.loads(json.dumps(desc))["load"] == device.load
        assert any(round(d.load, 6) != d.load for d in devices), \
            "population too small to witness the rounding bug"

    def test_describe_carries_comparator_keys(self):
        device = sample_population(3, seed=1)[0]
        desc = device.describe()
        assert desc["ua_key"] == device.ua.cache_key()
        assert desc["canvas_key"] == device.canvas.cache_key()
        assert desc["fonts_key"] == device.fonts.cache_key()

    def test_comparator_distributions_permutation_invariant(self):
        """Rendering the comparators over a reshuffled population yields
        the same eFP multiset — identity depends on the device alone."""
        devices = sample_population(60, seed=8)
        shuffled = list(devices)
        np.random.default_rng(0).shuffle(shuffled)
        for name in COMPARATOR_VECTORS:
            vector = get_vector(name)

            def multiset(devs):
                return sorted(
                    vector.render(vector.stack_of(d),
                                  vector.canonical_path(REFERENCE_PATH))
                    for d in devs)

            assert multiset(devices) == multiset(shuffled)

    def test_comparator_stacks_pickle_for_pool_workers(self):
        import pickle
        device = sample_population(2, seed=3)[1]
        for name in COMPARATOR_VECTORS:
            stack = get_vector(name).stack_of(device)
            clone = pickle.loads(pickle.dumps(stack))
            assert clone == stack and clone.cache_key() == stack.cache_key()

    def test_ua_stacks_are_frozen(self):
        device = sample_population(1, seed=2)[0]
        with pytest.raises(AttributeError):
            device.ua.browser = "Edge"
