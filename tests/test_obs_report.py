"""Run-report coverage: `run_study(report_path=...)` emits a valid,
self-consistent report; validate_report catches malformations; the
`python -m repro.obs.report` CLI renders and schema-checks it."""
import copy
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro import RenderCache, run_study
from repro.obs import (EVENT_KINDS, Recorder, build_report, make_event,
                       render_report, validate_report)
from repro.obs.report import STUDY_PHASES, main as report_main
from repro.platform import AudioStack
from repro.platform.jitter import sample_path, sample_repertoire
from repro.population.study import _MEASURE_NODES, _render_group
from repro.vectors import AUDIO_VECTORS, get_vector
from repro.vectors.base import RENDER_LENGTH
from repro.webaudio import OfflineAudioContext
from repro.webaudio.graph import node_label

STUDY = dict(user_count=8, iterations=4, vectors=("dc", "fft", "hybrid"),
             seed=13, workers=0)


@pytest.fixture(scope="module")
def report_and_cache(tmp_path_factory):
    path = tmp_path_factory.mktemp("obs") / "report.json"
    cache = RenderCache()
    dataset = run_study(cache=cache, report_path=str(path), **STUDY)
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh), cache, dataset, str(path)


class TestStudyReport:
    def test_schema_valid(self, report_and_cache):
        report, _, _, _ = report_and_cache
        assert validate_report(report) == []

    def test_phase_spans_present(self, report_and_cache):
        report, _, _, _ = report_and_cache
        names = [p["name"] for p in report["phases"]]
        assert names == list(STUDY_PHASES)
        assert all(p["duration_s"] >= 0 for p in report["phases"])
        # the probe span nests under render
        span_names = {s["name"] for s in report["spans"]}
        assert {"plan", "render", "assemble", "probe"} <= span_names

    def test_cache_section_matches_cache_state(self, report_and_cache):
        report, cache, _, _ = report_and_cache
        assert report["cache"] == cache.stats()
        assert report["cache"]["hits"] + report["cache"]["misses"] > 0

    def test_per_vector_latency_histograms(self, report_and_cache):
        report, cache, _, _ = report_and_cache
        rendered = 0
        for vector in STUDY["vectors"]:
            hist = report["histograms"][f"render.latency_s.{vector}"]
            assert hist["count"] > 0
            assert hist["sum"] > 0
            rendered += hist["count"]
        # one timed render per cache miss, no more, no fewer
        assert rendered == cache.stats()["misses"]
        assert report["counters"]["render.renders"] == rendered

    def test_node_breakdown_for_profiled_stacks(self, report_and_cache):
        report, _, _, _ = report_and_cache
        assert report["node_profile"], "no stack was profiled"
        # at least one analyser-bearing stack must attribute time across
        # the full node set, including its FFT backend
        assert any(
            {"Oscillator", "Gain", "Analyser", "DynamicsCompressor"} <= set(nodes)
            and any(label.startswith("fft:") for label in nodes)
            for nodes in report["node_profile"].values())
        for nodes in report["node_profile"].values():
            for entry in nodes.values():
                assert entry["seconds"] >= 0 and entry["calls"] > 0

    def test_workload_and_pool_sections(self, report_and_cache):
        report, _, _, _ = report_and_cache
        assert report["workload"]["users"] == STUDY["user_count"]
        assert report["workload"]["grid_items"] == 8 * 4 * 3
        assert report["pool"]["jobs"] == report["counters"]["pool.jobs"]
        assert report["pool"]["pooled"] is False

    def test_dataset_identical_with_and_without_observability(self, report_and_cache):
        _, _, observed_dataset, _ = report_and_cache
        assert run_study(**STUDY) == observed_dataset

    def test_render_report_renders_every_section(self, report_and_cache):
        report, _, _, _ = report_and_cache
        text = render_report(report)
        for marker in ("phases:", "cache:", "latency histograms:",
                       "hot nodes", "pool:"):
            assert marker in text


@pytest.mark.parametrize("name", sorted(AUDIO_VECTORS))
def test_profiled_labels_are_disjoint_slices_of_the_batch(name):
    """A profiled batch reports each node of the vector's graph, plus its
    FFT backend when the vector reads the analyser, and nothing else.
    Those are disjoint slices of the batch's wall time, so the hot-node
    share column divides by a total no larger than the batch took."""
    stack = AudioStack("blink", "ucrt-sse2", "radix2", "blink")
    rng = np.random.default_rng(11)
    repertoire = sample_repertoire(rng, 0.9)
    members = [(f"key{i}", sample_path(rng, 0.9, repertoire))
               for i in range(5)]
    _, metrics = _render_group((name, stack, members, _MEASURE_NODES))
    vector = get_vector(name)
    context = OfflineAudioContext(1, RENDER_LENGTH, stack.sample_rate)
    vector._build(context)
    labels = {node_label(node) for node in context._nodes}
    if vector.uses_analyser:
        labels.add(f"fft:{stack.fft_backend}")
    assert set(metrics["nodes"]) == labels
    assert sum(metrics["nodes"].values()) <= metrics["wall_s"]


class TestValidator:
    def _valid(self, report_and_cache):
        return copy.deepcopy(report_and_cache[0])

    def test_rejects_non_object(self):
        assert validate_report([1, 2]) != []
        assert validate_report(None) != []

    def test_rejects_wrong_kind_or_format(self, report_and_cache):
        report = self._valid(report_and_cache)
        report["kind"] = "something-else"
        report["format"] = 99
        problems = validate_report(report)
        assert any("kind" in p for p in problems)
        assert any("format" in p for p in problems)

    def test_rejects_missing_phase(self, report_and_cache):
        report = self._valid(report_and_cache)
        report["phases"] = [p for p in report["phases"] if p["name"] != "render"]
        assert any("render" in p for p in validate_report(report))

    def test_rejects_inconsistent_histogram(self, report_and_cache):
        report = self._valid(report_and_cache)
        name = next(iter(report["histograms"]))
        report["histograms"][name]["count"] += 1
        assert any("sum to count" in p for p in validate_report(report))

    def test_rejects_malformed_node_profile(self, report_and_cache):
        report = self._valid(report_and_cache)
        report["node_profile"]["stack"] = {"Gain": {"seconds": "fast"}}
        assert validate_report(report) != []

    def test_build_report_minimal_recorder(self):
        rec = Recorder()
        for phase in STUDY_PHASES:
            with rec.span(phase):
                pass
        report = build_report(rec, workload={"users": 1})
        assert validate_report(report) == []
        assert report["cache"] is None and report["pool"] is None


class TestCLI:
    def test_check_passes_on_valid_report(self, report_and_cache):
        _, _, _, path = report_and_cache
        assert report_main([path, "--check"]) == 0

    def test_renders_tables(self, report_and_cache, capsys):
        _, _, _, path = report_and_cache
        assert report_main([path]) == 0
        out = capsys.readouterr().out
        assert "== run report ==" in out and "phases:" in out

    def test_missing_file_fails(self, tmp_path, capsys):
        assert report_main([str(tmp_path / "nope.json")]) == 2
        assert "no report" in capsys.readouterr().err

    def test_invalid_json_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert report_main([str(bad), "--check"]) == 2

    @pytest.mark.parametrize("check", [False, True])
    def test_directory_path_fails_naming_it(self, tmp_path, capsys, check):
        argv = [str(tmp_path)] + (["--check"] if check else [])
        assert report_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path) in err
        assert len(err.splitlines()) == 1

    def test_schema_violation_fails(self, tmp_path, report_and_cache, capsys):
        report = copy.deepcopy(report_and_cache[0])
        del report["phases"]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(report))
        assert report_main([str(path), "--check"]) == 2
        assert "phases" in capsys.readouterr().err

    def test_python_dash_m_entrypoint(self, report_and_cache):
        import os
        _, _, _, path = report_and_cache
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.obs.report", path, "--check"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert "RuntimeWarning" not in proc.stderr


class TestChaosReportCheck:
    """--check on reports from fault-injected runs, and on reports whose
    events sidecar was damaged after the fact."""

    @pytest.fixture()
    def chaos_report(self, tmp_path, monkeypatch):
        """A $REPRO_FAULTS-injected study run with report + events
        sidecar (one crash and one corrupt return, both recovered)."""
        from repro import FaultPlan
        from repro.resilience import Fault, RetryPolicy
        from repro.resilience.faults import ENV_VAR
        study = dict(user_count=6, iterations=3,
                     vectors=("dc", "fft", "hybrid"), seed=11)
        monkeypatch.delenv(ENV_VAR, raising=False)
        probe = RenderCache()
        run_study(cache=probe, workers=0, **study)
        keys = sorted(probe._store)
        plan = FaultPlan(seed=3, faults=(
            Fault(kind="crash", keys=(keys[0],), times=1),
            Fault(kind="corrupt", keys=(keys[-1],), times=1),
        ))
        monkeypatch.setenv(ENV_VAR, plan.save(str(tmp_path / "plan.json")))
        report_path = str(tmp_path / "report.json")
        events_path = str(tmp_path / "events.jsonl")
        run_study(cache=RenderCache(), workers=0, report_path=report_path,
                  event_log_path=events_path,
                  retry_policy=RetryPolicy(base_delay_s=0.005,
                                           max_delay_s=0.05),
                  **study)
        return report_path, events_path

    def test_chaos_run_report_passes_check(self, chaos_report):
        report_path, _ = chaos_report
        payload = json.load(open(report_path))
        # the faults really perturbed the run this report describes
        assert payload["retry"]["retries"] >= 2
        assert payload["events"]["kinds"].get("job.failed", 0) == 2
        assert report_main([report_path, "--check"]) == 0

    def test_truncated_events_sidecar_fails_check_with_named_error(
            self, chaos_report, capsys):
        report_path, events_path = chaos_report
        with open(events_path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
        with open(events_path, "w", encoding="utf-8") as fh:
            fh.writelines(lines[: len(lines) // 2])
        assert report_main([report_path, "--check"]) == 2
        err = capsys.readouterr().err
        assert "events sidecar truncated" in err
        assert f"holds {len(lines) // 2} of {len(lines)} events" in err

    def test_missing_events_sidecar_fails_check(self, chaos_report, capsys):
        report_path, events_path = chaos_report
        os.remove(events_path)
        assert report_main([report_path, "--check"]) == 2
        assert "events sidecar missing" in capsys.readouterr().err

    def test_torn_sidecar_tail_is_reported_as_a_sidecar_problem(
            self, chaos_report, capsys):
        """A sidecar whose final line was torn by a crash: the events
        before it are intact but --check must surface the tear."""
        report_path, events_path = chaos_report
        with open(events_path, "ab") as fh:
            fh.write(b'{"schema": 1, "kind": "study.e')
        assert report_main([report_path, "--check"]) == 2
        assert "events sidecar: torn tail" in capsys.readouterr().err


class TestRetiredCacheKinds:
    """The render cache no longer has a disk tier, so the kinds only a
    disk-backed cache emitted are unknown: refused at emit, and a log
    holding one fails ``--check``."""

    @pytest.mark.parametrize("kind", ["cache.disk_load",
                                      "cache.corrupt_quarantine",
                                      "cache.stale_prune"])
    def test_log_holding_a_retired_kind_fails_check(self, kind, tmp_path,
                                                    capsys):
        assert kind not in EVENT_KINDS
        with pytest.raises(ValueError, match="unknown event kind"):
            make_event(kind)
        report_path = str(tmp_path / "report.json")
        events_path = str(tmp_path / "events.jsonl")
        run_study(user_count=3, iterations=2, vectors=("dc", "fft"), seed=5,
                  workers=0, cache=RenderCache(), report_path=report_path,
                  event_log_path=events_path)
        assert report_main([report_path, "--check"]) == 0
        with open(events_path, "r", encoding="utf-8") as fh:
            events = [json.loads(line) for line in fh]
        line = next(i for i, e in enumerate(events) if e["kind"] == "cache.miss")
        events[line]["kind"] = kind
        with open(events_path, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(e) + "\n" for e in events)
        assert report_main([report_path, "--check"]) == 2
        assert f"line {line + 1} has unknown kind {kind!r}" \
            in capsys.readouterr().err
