"""The study event log: crash-safe JSONL emission, torn-tail repair,
deterministic sequences, worker-event shipping, heartbeat, and the
chaos-run fault accounting invariant."""
import io
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro import FaultPlan, RenderCache, run_study
from repro.obs import (EVENT_KINDS, EVENT_SCHEMA, EventLog, NullRecorder,
                       Recorder, canonical_events, make_event,
                       normalize_events, read_events)
from repro.obs.progress import ProgressMeter
from repro.resilience import Fault, RetryPolicy
from repro.resilience.faults import ENV_VAR

STUDY = dict(user_count=6, iterations=3, vectors=("dc", "fft", "hybrid"),
             seed=11)


@pytest.fixture(autouse=True)
def _no_leaked_fault_plan(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)


class TestEventRecords:
    def test_make_event_stamps_identity(self):
        event = make_event("study.start", users=5)
        assert event["schema"] == EVENT_SCHEMA
        assert event["kind"] == "study.start"
        assert event["pid"] == os.getpid()
        assert event["users"] == 5
        assert "seq" not in event  # the recorder assigns seq on append

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            make_event("study.explode")

    def test_payload_may_not_shadow_reserved_fields(self):
        with pytest.raises(ValueError, match="reserved"):
            make_event("study.start", pid=1)

    def test_recorder_assigns_contiguous_seq(self):
        recorder = Recorder()
        recorder.event("study.start")
        recorder.event("phase.start", phase="plan")
        recorder.event("study.end")
        assert [e["seq"] for e in recorder.events] == [0, 1, 2]

    def test_null_recorder_event_is_a_noop(self):
        null = NullRecorder()
        null.event("study.start")
        null.merge_event({"kind": "study.end"})
        assert null.snapshot()["events"] == []


class TestEventLogFile:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with EventLog(path) as log:
            recorder = Recorder()
            recorder.attach_event_log(log)
            recorder.event("study.start", users=2)
            recorder.event("study.end")
        events, problems = read_events(path)
        assert problems == []
        assert [e["kind"] for e in events] == ["study.start", "study.end"]
        assert events[0]["users"] == 2

    def test_every_emit_is_flushed(self, tmp_path):
        """Crash safety hinges on each line being flushed as it is
        written — the file must be complete *before* close()."""
        path = str(tmp_path / "events.jsonl")
        log = EventLog(path)
        log.emit(make_event("study.start"))
        events, _ = read_events(path)  # read while the log is still open
        assert len(events) == 1
        log.close()

    def test_torn_tail_tolerated_by_reader(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with EventLog(path) as log:
            log.emit(make_event("study.start"))
            log.emit(make_event("study.end"))
        with open(path, "ab") as fh:
            fh.write(b'{"schema": 1, "kind": "cache.mi')  # cut mid-write
        events, problems = read_events(path)
        assert len(events) == 2
        assert len(problems) == 1 and "torn tail" in problems[0]

    def test_open_quarantines_torn_tail(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with EventLog(path) as log:
            log.emit(make_event("study.start"))
        with open(path, "ab") as fh:
            fh.write(b'{"half": ')
        log = EventLog(path)  # reopening repairs before appending
        assert log.torn_tail_repaired
        log.emit(make_event("study.end"))
        log.close()
        events, problems = read_events(path)
        assert problems == []
        assert [e["kind"] for e in events] == ["study.start", "study.end"]
        with open(path + ".corrupt", "rb") as fh:
            assert fh.read() == b'{"half": '

    def test_midfile_corruption_is_a_hard_problem(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        lines = [json.dumps(make_event("study.start")), "not json",
                 json.dumps(make_event("study.end"))]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        events, problems = read_events(path)
        assert len(events) == 2
        assert any("corrupt event at line 2" in p for p in problems)

    def test_unknown_kind_and_foreign_schema_are_problems(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"schema": EVENT_SCHEMA,
                                 "kind": "study.explode"}) + "\n")
            fh.write(json.dumps({"schema": 99,
                                 "kind": "study.start"}) + "\n")
        events, problems = read_events(path)
        assert events == []
        assert any("unknown kind" in p for p in problems)
        assert any("schema" in p for p in problems)

    def test_unhashable_kind_is_a_problem(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"schema": EVENT_SCHEMA,
                                 "kind": ["study.start"]}) + "\n")
        events, problems = read_events(path)
        assert events == []
        assert any("unknown kind" in p for p in problems)


class TestStudyEventStream:
    def test_study_emits_lifecycle_and_sidecar_matches_report(self, tmp_path):
        events_path = str(tmp_path / "events.jsonl")
        report_path = str(tmp_path / "report.json")
        run_study(cache=RenderCache(), workers=0, report_path=report_path,
                  event_log_path=events_path, **STUDY)
        events, problems = read_events(events_path)
        assert problems == []
        kinds = [e["kind"] for e in events]
        assert kinds[0] == "study.start"
        assert kinds[-1] == "study.end"
        for phase in ("plan", "render", "assemble"):
            assert {"kind": "phase.start", "phase": phase}.items() <= \
                next(e for e in events if e["kind"] == "phase.start"
                     and e.get("phase") == phase).items()
        assert "cache.miss" in kinds and "render.batch" in kinds
        assert [e["seq"] for e in events] == list(range(len(events)))
        report = json.load(open(report_path))
        assert report["events"]["count"] == len(events)
        assert report["events"]["path"] == events_path
        tally = {}
        for kind in kinds:
            tally[kind] = tally.get(kind, 0) + 1
        assert report["events"]["kinds"] == tally

    def test_inline_runs_are_byte_identical_after_normalization(self, tmp_path):
        logs = []
        for name in ("a", "b"):
            path = str(tmp_path / f"{name}.jsonl")
            run_study(cache=RenderCache(), workers=0, event_log_path=path,
                      **STUDY)
            events, problems = read_events(path)
            assert problems == []
            logs.append(json.dumps(normalize_events(events), sort_keys=True))
        assert logs[0] == logs[1]

    def test_pooled_runs_agree_on_the_canonical_form(self, tmp_path):
        logs = []
        for name in ("a", "b"):
            path = str(tmp_path / f"{name}.jsonl")
            run_study(cache=RenderCache(), workers=2, event_log_path=path,
                      **STUDY)
            events, problems = read_events(path)
            assert problems == []
            logs.append(json.dumps(canonical_events(events), sort_keys=True))
        assert logs[0] == logs[1]

    def test_worker_events_keep_the_worker_pid(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        run_study(cache=RenderCache(), workers=2, event_log_path=path, **STUDY)
        events, _ = read_events(path)
        batches = [e for e in events if e["kind"] == "render.batch"]
        assert batches, "pooled run must ship render.batch events home"
        parent = next(e["pid"] for e in events if e["kind"] == "study.start")
        assert any(e["pid"] != parent for e in batches)
        # merged worker events still get parent-local contiguous seq
        assert [e["seq"] for e in events] == list(range(len(events)))

    def test_event_log_implies_a_recorder(self, tmp_path):
        """event_log_path alone (no report, no recorder) must activate
        instrumentation — an empty sidecar would be a silent lie."""
        path = str(tmp_path / "events.jsonl")
        run_study(cache=RenderCache(), workers=0, event_log_path=path, **STUDY)
        events, _ = read_events(path)
        assert len(events) > 0


class TestSigkillSurvival:
    def test_sigkill_mid_run_leaves_a_readable_log(self, tmp_path):
        """Kill -9 a study mid-render: every flushed line must survive;
        at most the final line is torn, and reopening quarantines it."""
        events_path = str(tmp_path / "events.jsonl")
        code = (
            "import sys; sys.path.insert(0, %r)\n"
            "from repro import RenderCache, run_study\n"
            "run_study(40, iterations=8, cache=RenderCache(), workers=0,\n"
            "          event_log_path=%r)\n"
            % (os.path.join(os.path.dirname(os.path.dirname(
                os.path.abspath(__file__))), "src"), events_path)
        )
        proc = subprocess.Popen([sys.executable, "-c", code])
        deadline = time.time() + 30.0
        while time.time() < deadline:
            if os.path.exists(events_path) \
                    and os.path.getsize(events_path) > 200:
                break
            if proc.poll() is not None:
                break
            time.sleep(0.01)
        if proc.poll() is None:
            os.kill(proc.pid, signal.SIGKILL)
        proc.wait()
        events, problems = read_events(events_path)
        assert len(events) > 0
        assert all("torn tail" in p for p in problems)  # at most a torn tail
        log = EventLog(events_path)  # reopen repairs whatever was torn
        log.close()
        _events, problems = read_events(events_path)
        assert problems == []


class TestChaosFaultAccounting:
    def test_event_sequence_accounts_for_every_injected_fault(
            self, monkeypatch, tmp_path):
        """Every fault the FaultPlan ledger proves fired must be visible
        in the event sequence: crash/corrupt failures as job.failed, with
        matching job.retry recoveries."""
        events_path = str(tmp_path / "events.jsonl")
        probe_cache = RenderCache()
        run_study(cache=probe_cache, workers=0, **STUDY)
        keys = sorted(probe_cache._store)
        plan = FaultPlan(seed=7, faults=(
            Fault(kind="crash", keys=(keys[0],), times=1),
            Fault(kind="corrupt", keys=(keys[-1],), times=1),
        ))
        plan_path = plan.save(str(tmp_path / "plan.json"))
        monkeypatch.setenv(ENV_VAR, plan_path)
        run_study(cache=RenderCache(), workers=0, event_log_path=events_path,
                  retry_policy=RetryPolicy(base_delay_s=0.005,
                                           max_delay_s=0.05),
                  **STUDY)
        fired = len(os.listdir(plan.ledger_dir))
        assert fired == 2, "both injected faults must have fired"
        events, problems = read_events(events_path)
        assert problems == []
        kinds = [e["kind"] for e in events]
        failures = [e for e in events if e["kind"] == "job.failed"]
        assert len(failures) == 2  # one crash + one corrupt return
        assert {e["failure"] for e in failures} == {"crash", "corrupt"}
        assert kinds.count("job.retry") >= 2  # both recovered


class TestProgressMeter:
    def test_heartbeat_lines_carry_the_vitals(self):
        stream = io.StringIO()
        clock = iter([0.0, 1.0, 2.0, 3.0]).__next__
        meter = ProgressMeter(total_jobs=4, total_rows=8, stream=stream,
                              interval_s=0.5, clock=clock)
        meter.update(2, 4, retries=1, hit_rate=0.25)
        meter.finish(8, retries=1, hit_rate=0.25)
        out = stream.getvalue()
        assert "rows 4/8" in out
        assert "rows/s" in out
        assert "cache 25.0% hit" in out
        assert "retries 1" in out
        assert "eta" in out
        assert "done in" in out

    def test_throttled_between_intervals_but_final_job_always_prints(self):
        stream = io.StringIO()
        ticks = iter([0.0] + [0.01 * i for i in range(1, 50)]).__next__
        meter = ProgressMeter(total_jobs=10, total_rows=10, stream=stream,
                              interval_s=10.0, clock=ticks)
        for done in range(1, 10):
            meter.update(done, done)
        assert meter.lines_written == 1  # first sample emits, rest throttled
        meter.update(10, 10)
        assert meter.lines_written == 2  # the final job always emits

    def test_study_heartbeat_writes_to_the_given_stream(self, tmp_path):
        stream = io.StringIO()
        run_study(cache=RenderCache(), workers=0, progress=stream, **STUDY)
        out = stream.getvalue()
        assert "[repro.study]" in out and "done in" in out

    @pytest.mark.parametrize("disabled", [False, True],
                             ids=["cache-on", "cache-off"])
    def test_study_heartbeat_ends_on_every_row(self, disabled):
        """The final line counts the rows of completed jobs against every
        row sent to render: each grid item with the cache off, each
        distinct class with it on."""
        stream = io.StringIO()
        recorder = Recorder()
        run_study(60, 30, ("dc", "fft", "hybrid"), seed=3, workers=0,
                  cache=RenderCache(disabled=disabled), recorder=recorder,
                  progress=stream)
        rows = recorder.counters["render.renders"]
        if disabled:
            assert rows == 60 * 30 * 3
        final = stream.getvalue().splitlines()[-1]
        assert f" rows {rows}/{rows} " in final
        assert " eta 0.0s " in final and "done in" in final

    def test_progress_off_touches_no_stream(self, tmp_path, capsys):
        run_study(cache=RenderCache(), workers=0, **STUDY)
        captured = capsys.readouterr()
        assert "[repro.study]" not in captured.err
