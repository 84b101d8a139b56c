"""Mergeable analysis: shard reports merge to the byte-identical
monolithic analysis report, in any order and from runs of any shard
size; torn inputs, overlaps and cross-study mixes are rejected with
named errors; the CLI's --merge mode and the obs
--check dispatch cover the same artefacts; and a chaos (fault-injected) sharded
run still merges to the fault-free bytes."""
import itertools
import json
import os
import subprocess
import sys

import pytest

from repro import run_study, run_study_sharded
from repro.analysis import build_analysis_report, dumps_analysis_report
from repro.analysis.shards import (SHARD_REPORT_KIND, dumps_shard_or_merged,
                                   merge_shard_reports,
                                   validate_shard_report)
from repro.population import RenderCache
from repro.resilience import Fault, FaultPlan, RetryPolicy
from repro.resilience.faults import ENV_VAR

STUDY = dict(iterations=5, vectors=("dc", "fft", "hybrid"), seed=7)
USERS = 30
SHARD = 9

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

POLICY = RetryPolicy(base_delay_s=0.005, max_delay_s=0.05,
                     job_deadline_s=30.0)


@pytest.fixture(autouse=True)
def _no_leaked_fault_plan(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)


@pytest.fixture(scope="module")
def sharded(tmp_path_factory):
    mp = pytest.MonkeyPatch()
    mp.delenv(ENV_VAR, raising=False)
    try:
        out = str(tmp_path_factory.mktemp("shards"))
        result = run_study_sharded(USERS, SHARD, out, workers=0, **STUDY)
    finally:
        mp.undo()
    return result


@pytest.fixture(scope="module")
def shard_reports(sharded):
    return [json.load(open(path)) for path in sharded.shard_report_paths()]


@pytest.fixture(scope="module")
def six_user_reports(tmp_path_factory):
    """The same study's shard reports at shard size 6: [0, 6), [6, 12),
    ..., [24, 30)."""
    mp = pytest.MonkeyPatch()
    mp.delenv(ENV_VAR, raising=False)
    try:
        out = str(tmp_path_factory.mktemp("shards6"))
        result = run_study_sharded(USERS, 6, out, workers=0, **STUDY)
    finally:
        mp.undo()
    reports = []
    for path in result.shard_report_paths():
        with open(path, encoding="utf-8") as fh:
            reports.append(json.load(fh))
    return reports


@pytest.fixture(scope="module")
def monolithic_bytes():
    mp = pytest.MonkeyPatch()
    mp.delenv(ENV_VAR, raising=False)
    try:
        dataset = run_study(USERS, workers=0, **STUDY)
    finally:
        mp.undo()
    return dumps_analysis_report(build_analysis_report(dataset))


class TestMergeDeterminism:
    def test_merged_equals_monolithic_bytes(self, sharded, monolithic_bytes):
        assert open(sharded.merged_report_path).read() == monolithic_bytes

    def test_merge_is_permutation_invariant(self, shard_reports,
                                            monolithic_bytes):
        for perm in itertools.permutations(shard_reports):
            merged = merge_shard_reports(list(perm))
            assert dumps_shard_or_merged(merged) == monolithic_bytes

    def test_reports_of_two_shard_sizes_merge(self, shard_reports,
                                              six_user_reports,
                                              monolithic_bytes):
        """The merge needs an exact partition, not one shard size:
        [0, 9) and [9, 18) at size 9 with [18, 24) and [24, 30) at size
        6 give the monolithic bytes."""
        mixed = [*shard_reports[:2], *six_user_reports[3:]]
        assert [(r["shard"]["start"], r["shard"]["stop"]) for r in mixed] \
            == [(0, 9), (9, 18), (18, 24), (24, 30)]
        assert dumps_shard_or_merged(merge_shard_reports(mixed)) \
            == monolithic_bytes

    def test_shard_reports_validate(self, shard_reports):
        for report in shard_reports:
            assert report["kind"] == SHARD_REPORT_KIND
            assert validate_shard_report(report) == []

    def test_shard_report_building_is_deterministic(self, sharded):
        from repro.analysis.shards import build_shard_report
        from repro.population.shards import (dataset_from_records,
                                             iter_shard_records,
                                             load_manifest, verify_shard_data)
        paths = sharded.shards[0].paths
        manifest = load_manifest(paths.manifest)
        verify_shard_data(paths, manifest)
        records = list(iter_shard_records(paths.data))
        rebuilt = build_shard_report(dataset_from_records(manifest, records),
                                     manifest)
        assert dumps_shard_or_merged(rebuilt) == open(paths.report).read()


class TestMergeValidation:
    def test_gap_rejected(self, shard_reports):
        with pytest.raises(ValueError, match="partition"):
            merge_shard_reports([shard_reports[0], shard_reports[2],
                                 shard_reports[3]])

    def test_duplicate_shard_rejected(self, shard_reports):
        with pytest.raises(ValueError, match="overlap"):
            merge_shard_reports(shard_reports + [shard_reports[1]])

    def test_partial_overlap_rejected(self, shard_reports,
                                      six_user_reports):
        """[0, 9) at size 9 and [6, 12) at size 6 share users 6-8."""
        with pytest.raises(ValueError, match="overlap"):
            merge_shard_reports([shard_reports[0], *six_user_reports[1:]])

    def test_incomplete_coverage_rejected(self, shard_reports):
        with pytest.raises(ValueError, match="users"):
            merge_shard_reports(shard_reports[:-1])

    def test_mixed_study_rejected(self, shard_reports):
        foreign = json.loads(json.dumps(shard_reports[1]))
        foreign["study"]["seed"] = 999
        with pytest.raises(ValueError, match="seed"):
            merge_shard_reports([shard_reports[0], foreign,
                                 *shard_reports[2:]])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="no shard reports"):
            merge_shard_reports([])

    def test_tampered_counts_caught(self, shard_reports):
        tampered = json.loads(json.dumps(shard_reports[0]))
        tampered["vectors"]["dc"]["first"][0] += 1
        problems = validate_shard_report(tampered)
        assert any("first" in p for p in problems)
        with pytest.raises(ValueError, match="invalid shard report"):
            merge_shard_reports([tampered, *shard_reports[1:]])

    def test_edge_index_out_of_range_caught(self, shard_reports):
        tampered = json.loads(json.dumps(shard_reports[0]))
        tampered["vectors"]["dc"]["edges"].append([0, 10 ** 6])
        assert any("edges" in p for p in validate_shard_report(tampered))

    def test_tuple_count_mismatch_caught(self, shard_reports):
        tampered = json.loads(json.dumps(shard_reports[0]))
        tampered["combined"]["tuples"][0][1] += 1
        assert any("tuples" in p for p in validate_shard_report(tampered))


class TestCLI:
    def _run(self, *argv):
        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
        env.pop(ENV_VAR, None)
        return subprocess.run([sys.executable, "-m", *argv],
                              env=env, capture_output=True, text=True)

    def test_merge_mode_matches_monolithic(self, sharded, monolithic_bytes,
                                           tmp_path):
        out = tmp_path / "merged.json"
        proc = self._run("repro.analysis", "--merge",
                         *reversed(sharded.shard_report_paths()),
                         "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert out.read_text() == monolithic_bytes

    def test_merge_mode_rejects_gap(self, sharded):
        paths = sharded.shard_report_paths()
        proc = self._run("repro.analysis", "--merge", paths[0], paths[2])
        assert proc.returncode == 2
        assert "partition" in proc.stderr

    def test_obs_check_dispatches_both_kinds(self, sharded):
        for path in (sharded.shards[0].paths.report,
                     sharded.merged_report_path):
            proc = self._run("repro.obs.report", path, "--check")
            assert proc.returncode == 0, (path, proc.stderr)

    def test_obs_render_shard_report(self, sharded):
        proc = self._run("repro.obs.report", sharded.shards[0].paths.report)
        assert proc.returncode == 0
        assert "shard report" in proc.stdout


class TestChaosSharded:
    def test_faulted_sharded_run_merges_to_clean_bytes(
            self, sharded, monolithic_bytes, monkeypatch, tmp_path):
        """A sharded run with injected crash + corrupt faults (on real
        class keys) recovers to the byte-identical merged analysis."""
        cache = RenderCache()
        probe = run_study_sharded(USERS, SHARD, str(tmp_path / "probe"),
                                  workers=0, cache=cache, **STUDY)
        keys = sorted(cache._store)
        plan = FaultPlan(seed=99, faults=(
            Fault(kind="crash", keys=(keys[0],), times=1),
            Fault(kind="corrupt", keys=(keys[-1],), times=1),
        ))
        monkeypatch.setenv(ENV_VAR, plan.save(str(tmp_path / "plan.json")))
        chaotic = run_study_sharded(USERS, SHARD, str(tmp_path / "chaos"),
                                    workers=2, retry_policy=POLICY, **STUDY)
        assert open(chaotic.merged_report_path).read() == monolithic_bytes
        monkeypatch.delenv(ENV_VAR)
        assert probe.merged_report_path  # probe partition completed too
