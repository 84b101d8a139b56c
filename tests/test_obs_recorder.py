"""repro.obs unit coverage: spans, counters, histograms, snapshots,
pool batch metrics folded into the parent recorder, node profiler
scoping, and the null object's contract."""
import json
import random

import pytest

from repro.obs import (Histogram, NULL_RECORDER, NullRecorder, Recorder,
                       current_node_profiler, profile_nodes)
from repro.obs.events import make_event
from repro.population.study import _absorb_batch_metrics


def _batch_metrics(vector, size, wall, stack="s", nodes=None, calls=None):
    """One pool worker's metrics dict for a measured batch, in the shape
    ``repro.population.study._render_group`` returns it."""
    metrics = {
        "vector": vector, "stack": stack, "wall_s": wall, "batch_size": size,
        "events": [make_event("render.batch", vector=vector, stack=stack,
                              batch_size=size, wall_s=wall)],
    }
    if nodes is not None:
        metrics["nodes"] = nodes
        metrics["node_calls"] = calls
    return metrics


class TestSpans:
    def test_span_records_duration_and_name(self):
        rec = Recorder()
        with rec.span("plan") as span:
            pass
        assert span.duration_s >= 0.0
        assert [s["name"] for s in rec.spans] == ["plan"]
        assert rec.spans[0]["parent"] is None
        assert rec.spans[0]["duration_s"] >= 0.0

    def test_nested_spans_carry_parent_ids(self):
        rec = Recorder()
        with rec.span("outer"):
            with rec.span("inner"):
                pass
        by_name = {s["name"]: s for s in rec.spans}
        assert by_name["inner"]["parent"] == by_name["outer"]["id"]
        assert by_name["outer"]["parent"] is None
        # inner closes first, but ids follow open order
        assert by_name["inner"]["id"] > by_name["outer"]["id"]

    def test_span_attrs_and_set(self):
        rec = Recorder()
        with rec.span("render", jobs=3) as span:
            span.set(pooled=False)
        assert rec.spans[0]["attrs"] == {"jobs": 3, "pooled": False}

    def test_span_closed_on_exception(self):
        rec = Recorder()
        with pytest.raises(RuntimeError):
            with rec.span("boom"):
                raise RuntimeError
        assert rec.spans[0]["name"] == "boom"
        assert rec._open_spans == []

    def test_monotonic_start_offsets(self):
        rec = Recorder()
        with rec.span("a"):
            pass
        with rec.span("b"):
            pass
        a, b = (s for s in rec.spans)
        assert b["start_s"] >= a["start_s"] >= 0.0


class TestCountersAndHistograms:
    def test_counters_accumulate(self):
        rec = Recorder()
        rec.count("renders")
        rec.count("renders", 4)
        assert rec.counters["renders"] == 5

    def test_histogram_summary_stats(self):
        hist = Histogram()
        for value in (0.001, 0.002, 0.004):
            hist.observe(value)
        assert hist.count == 3
        assert hist.min == 0.001
        assert hist.max == 0.004
        assert hist.mean == pytest.approx(0.007 / 3)
        assert sum(hist.buckets.values()) == 3

    def test_bucket_bounds_cover_value(self):
        for value in (1e-9, 1e-6, 3e-6, 0.01, 1.0, 500.0):
            index = Histogram.bucket_index(value)
            assert value <= Histogram.bucket_upper_bound(index)
            if index > 0:
                assert value > Histogram.bucket_upper_bound(index - 1)

    def test_quantiles_bracket_the_data(self):
        hist = Histogram()
        for value in (0.001,) * 9 + (1.0,):
            hist.observe(value)
        assert hist.approx_quantile(0.5) <= 0.01
        assert hist.approx_quantile(0.99) == 1.0
        assert hist.approx_quantile(0.0) == 0.001

    def test_round_trip(self):
        hist = Histogram()
        for value in (0.001, 0.002, 0.2):
            hist.observe(value)
        back = Histogram.from_dict(json.loads(json.dumps(hist.to_dict())))
        assert back.to_dict() == hist.to_dict()
        assert back.buckets == hist.buckets  # int keys again, not JSON's str


class TestSnapshot:
    def test_snapshot_is_json_serializable(self):
        rec = Recorder()
        with rec.span("plan"):
            rec.count("n")
            rec.observe("lat", 0.002)
            rec.record_node_profile("stack-a", {"Oscillator": 0.1},
                                    {"Oscillator": 40})
        payload = json.loads(json.dumps(rec.snapshot()))
        assert payload["counters"] == {"n": 1}
        assert payload["node_profile"]["stack-a"]["Oscillator"]["calls"] == 40

    def test_node_profile_without_calls_defaults_to_one(self):
        rec = Recorder()
        rec.record_node_profile("s", {"Gain": 0.5})
        assert rec.node_profile["s"]["Gain"]["calls"] == 1


class TestBatchMetrics:
    """Pool workers never touch the parent's recorder: each returns one
    metrics dict per batch, and the driver folds it in through the
    recorder's ordinary calls."""

    def test_absorbed_batch_adds_to_existing_metrics(self):
        parent = Recorder()
        parent.count("render.renders", 3)
        parent.observe("render.latency_s.fft", 0.004)
        parent.record_node_profile("s", {"Gain": 0.25}, {"Gain": 5})
        _absorb_batch_metrics(parent, _batch_metrics(
            "fft", 2, 0.002, nodes={"Gain": 0.5}, calls={"Gain": 10}))

        assert parent.counters == {"render.renders": 5, "render.batches": 1,
                                   "render.profiled_renders": 1}
        latency = parent.histograms["render.latency_s.fft"]
        assert latency.count == 3  # one observation per render
        assert latency.total == pytest.approx(0.006)
        assert latency.min == 0.001 and latency.max == 0.004
        assert parent.histograms["render.batch_wall_s.fft"].count == 1
        assert parent.histograms["render.batch_size"].total == 2
        assert parent.node_profile["s"]["Gain"] == {"seconds": 0.75,
                                                    "calls": 15}
        assert [(e["kind"], e["seq"]) for e in parent.events] \
            == [("render.batch", 0)]


class TestNodeProfiler:
    def test_scoped_activation(self):
        assert current_node_profiler() is None
        with profile_nodes() as prof:
            assert current_node_profiler() is prof
            prof.add("Oscillator", 0.25)
            prof.add("Oscillator", 0.25)
        assert current_node_profiler() is None
        assert prof.seconds == {"Oscillator": 0.5}
        assert prof.calls == {"Oscillator": 2}

    def test_nested_scopes_restore_outer(self):
        with profile_nodes() as outer:
            with profile_nodes() as inner:
                assert current_node_profiler() is inner
            assert current_node_profiler() is outer


class TestNullRecorder:
    def test_null_is_disabled_and_inert(self):
        rec = NULL_RECORDER
        assert isinstance(rec, NullRecorder)
        assert rec.enabled is False
        with rec.span("anything", attr=1) as span:
            span.set(more=2)
        rec.count("n")
        rec.observe("lat", 1.0)
        rec.record_node_profile("s", {"Gain": 1.0})
        snap = rec.snapshot()
        assert snap["enabled"] is False
        assert snap["counters"] == {} and snap["spans"] == []

    def test_null_span_handle_is_shared(self):
        # the fast-path guarantee: repeated span() calls allocate nothing
        assert NULL_RECORDER.span("a") is NULL_RECORDER.span("b")


class TestHistogramProperties:
    """Property tests over seeded random observation sets: quantile
    sanity, batch-order independence of the fold, and the JSON round
    trip."""

    @staticmethod
    def _hist(values):
        hist = Histogram()
        for value in values:
            hist.observe(value)
        return hist

    @staticmethod
    def _samples(seed, n):
        rng = random.Random(seed)
        return [rng.lognormvariate(mu=-8.0, sigma=2.5) for _ in range(n)]

    @staticmethod
    def _batches(seed, n):
        """``n`` measured batches over three vectors and four stacks;
        about a third carry a node profile."""
        rng = random.Random(seed)
        batches = []
        for _ in range(n):
            nodes = calls = None
            if rng.random() < 0.3:
                nodes = {"Gain": rng.uniform(0, 1e-3),
                         "Oscillator": rng.uniform(0, 1e-3)}
                calls = {label: rng.randint(1, 500) for label in nodes}
            batches.append(_batch_metrics(
                rng.choice(("dc", "fft", "hybrid")), rng.randint(1, 64),
                rng.lognormvariate(mu=-6.0, sigma=1.5),
                stack=f"stack-{rng.randint(0, 3)}", nodes=nodes,
                calls=calls))
        return batches

    @staticmethod
    def _same(a: Histogram, b: Histogram):
        assert a.count == b.count
        assert a.buckets == b.buckets
        assert a.min == b.min and a.max == b.max
        assert a.total == pytest.approx(b.total, rel=1e-12)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_batch_completion_order_does_not_change_metrics(self, seed):
        """Pool batches come home in completion order, which varies from
        run to run; the folded counters, histograms and node profile must
        not depend on it."""
        batches = self._batches(seed, 120)
        arrived = random.Random(seed + 100).sample(batches, len(batches))
        planned, pooled = Recorder(), Recorder()
        for metrics in batches:
            _absorb_batch_metrics(planned, metrics)
        for metrics in arrived:
            _absorb_batch_metrics(pooled, metrics)
        assert planned.counters == pooled.counters
        assert sorted(planned.histograms) == sorted(pooled.histograms)
        for name, hist in planned.histograms.items():
            self._same(hist, pooled.histograms[name])
        assert planned.node_profile.keys() == pooled.node_profile.keys()
        for stack, nodes in planned.node_profile.items():
            for label, entry in nodes.items():
                other = pooled.node_profile[stack][label]
                assert entry["calls"] == other["calls"]
                assert entry["seconds"] == pytest.approx(other["seconds"],
                                                         rel=1e-12)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_json_round_trip_keeps_every_quantile(self, seed):
        """The report renderer re-reads histograms through ``from_dict``,
        so what it prints must be what the live histogram holds."""
        hist = self._hist(self._samples(seed, 300))
        back = Histogram.from_dict(json.loads(json.dumps(hist.to_dict())))
        assert (back.count, back.total, back.min, back.max, back.buckets) \
            == (hist.count, hist.total, hist.min, hist.max, hist.buckets)
        qs = [i / 100 for i in range(101)]
        assert [back.approx_quantile(q) for q in qs] \
            == [hist.approx_quantile(q) for q in qs]

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_quantiles_are_monotone_in_q(self, seed):
        hist = self._hist(self._samples(seed, 400))
        qs = [i / 20 for i in range(21)]
        estimates = [hist.approx_quantile(q) for q in qs]
        assert estimates == sorted(estimates)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_quantiles_stay_inside_the_observed_range(self, seed):
        values = self._samples(seed, 100)
        hist = self._hist(values)
        for q in (0.0, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0):
            assert min(values) <= hist.approx_quantile(q) <= max(values)
        assert hist.approx_quantile(0.0) == min(values)
        assert hist.approx_quantile(1.0) == max(values)

    def test_interior_quantile_interpolates_below_the_bucket_bound(self):
        # the median bucket holds 98 of 100 observations (outliers keep
        # the min/max clamp from binding): the estimate must be the
        # geometric midpoint (upper/sqrt(2)), not the pessimistic bound
        hist = self._hist([1e-5] + [0.0015] * 98 + [0.1])
        import math
        upper = Histogram.bucket_upper_bound(Histogram.bucket_index(0.0015))
        assert hist.approx_quantile(0.5) == pytest.approx(upper / math.sqrt(2))
        assert hist.approx_quantile(0.5) < upper
