"""Chrome trace-event export: report/sidecar -> {"traceEvents": [...]},
clock rebasing across pool-worker pids, and the --check round trip."""
import json

import pytest

from repro import RenderCache, run_study
from repro.obs import make_event, read_events
from repro.obs.trace import build_trace, main, validate_trace


@pytest.fixture(scope="module")
def run_artifacts(tmp_path_factory):
    """One pooled instrumented run: report + events sidecar."""
    base = tmp_path_factory.mktemp("trace_run")
    report_path = str(base / "report.json")
    events_path = str(base / "events.jsonl")
    run_study(8, iterations=3, vectors=("dc", "fft", "hybrid"), seed=11,
              cache=RenderCache(), workers=2, report_path=report_path,
              event_log_path=events_path)
    return report_path, events_path


class TestBuildTrace:
    def test_spans_become_complete_events(self, run_artifacts):
        report_path, _ = run_artifacts
        report = json.load(open(report_path))
        trace = build_trace(spans=report["spans"])
        xs = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in xs} >= {"plan", "render", "assemble"}
        for entry in xs:
            assert entry["ts"] >= 0 and entry["dur"] >= 0  # microseconds

    def test_events_become_instants_with_their_pid(self, run_artifacts):
        _, events_path = run_artifacts
        events, _ = read_events(events_path)
        trace = build_trace(events=events)
        instants = [e for e in trace["traceEvents"] if e["ph"] == "i"]
        assert len(instants) == len(events)
        pids = {e["pid"] for e in instants}
        assert len(pids) >= 2, "worker events must keep their own pid lane"
        # each pid gets a process_name metadata record
        named = {e["pid"] for e in trace["traceEvents"] if e["ph"] == "M"}
        assert pids <= named

    def test_foreign_pids_are_rebased_onto_the_anchor_timeline(self):
        """A worker's raw perf_counter clock (epoch 0, arbitrarily far
        from the anchor's) must land between the anchor events around its
        merge point, preserving its own relative spacing."""
        anchor = [
            dict(make_event("study.start", epoch=0.0), seq=0,
                 t_mono_s=1.0, pid=10),
            dict(make_event("study.end", epoch=0.0), seq=3,
                 t_mono_s=9.0, pid=10),
        ]
        worker = [
            dict(make_event("render.batch", batch_size=4), seq=1,
                 t_mono_s=1000.0, pid=20),
            dict(make_event("render.batch", batch_size=4), seq=2,
                 t_mono_s=1000.5, pid=20),
        ]
        trace = build_trace(events=anchor + worker, anchor_pid=10)
        instants = {(-e["pid"], e["ts"]): e for e in trace["traceEvents"]
                    if e["ph"] == "i"}
        worker_ts = sorted(e["ts"] for e in trace["traceEvents"]
                           if e["ph"] == "i" and e["pid"] == 20)
        # first worker event pinned to the preceding anchor event (t=1.0)
        assert worker_ts[0] == pytest.approx(1.0e6)
        # relative spacing preserved (0.5 s = 5e5 µs)
        assert worker_ts[1] - worker_ts[0] == pytest.approx(0.5e6)
        assert instants  # sanity: instants exist

    def test_validate_trace_flags_garbage(self):
        assert validate_trace([]) == ["trace is not a JSON object"]
        assert validate_trace({}) == ["traceEvents must be an array"]
        bad = {"traceEvents": [
            {"ph": "Z", "name": "x", "pid": 1},
            {"ph": "X", "name": "plan", "pid": 1, "ts": -1, "dur": 2},
            {"ph": "i", "name": "not.a.kind", "pid": 1, "ts": 0},
        ]}
        problems = validate_trace(bad)
        assert any("unsupported ph" in p for p in problems)
        assert any("non-negative ts" in p for p in problems)
        assert any("not a known event kind" in p for p in problems)
        # unhashable ph / instant name: named problems, never a TypeError
        unhashable_ph = {"traceEvents": [{"ph": ["X"], "name": "a", "pid": 1}]}
        assert any("unsupported ph" in p for p in validate_trace(unhashable_ph))
        unhashable_name = {"traceEvents": [
            {"ph": "i", "name": ["a"], "pid": 1, "ts": 0}]}
        assert any("missing string name" in p
                   for p in validate_trace(unhashable_name))


class TestTraceCLI:
    def test_report_export_round_trips_through_check(self, run_artifacts,
                                                     tmp_path, capsys):
        report_path, _ = run_artifacts
        out = str(tmp_path / "study.trace.json")
        assert main([report_path, "--out", out]) == 0
        capsys.readouterr()
        trace = json.load(open(out))  # valid JSON document
        assert validate_trace(trace) == []
        assert {e["ph"] for e in trace["traceEvents"]} == {"M", "X", "i"}
        assert main([out, "--check"]) == 0  # the exported trace re-validates

    def test_events_only_export(self, run_artifacts, tmp_path, capsys):
        _, events_path = run_artifacts
        out = str(tmp_path / "events.trace.json")
        assert main([events_path, "--out", out]) == 0
        capsys.readouterr()
        trace = json.load(open(out))
        assert all(e["ph"] in ("M", "i") for e in trace["traceEvents"])

    def test_missing_input_fails(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.json"), "--check"]) == 2
        assert "no input" in capsys.readouterr().err

    def test_non_report_json_fails(self, tmp_path, capsys):
        path = str(tmp_path / "other.json")
        json.dump({"kind": "something.else"}, open(path, "w"))
        assert main([path, "--check"]) == 2
        assert "neither a trace document nor" in capsys.readouterr().err
