"""Sharded study pipeline: slice-sampler determinism, shard-size
validation, crash-safe shard format (manifest commit point, torn-file
quarantine), resume semantics (a resumed shard's report is reused when
sound and rebuilt otherwise, and a run SIGKILLed mid-shard resumes to
the uninterrupted run's bytes), and the headline invariant — a sharded
run reassembles to the byte-identical monolithic dataset."""
import json
import os
import shutil
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.population.shards as shards_mod
from repro import Recorder, run_study, run_study_sharded
from repro.population import ShardIntegrityError, shard_ranges
from repro.population.dataset import StudyDataset
from repro.population.sampler import sample_population, sample_population_slice
from repro.obs import read_events
from repro.obs.report import STUDY_PHASES, validate_report
from repro.population.shards import (ShardPaths, check_shard_study,
                                     iter_shard_records, load_manifest,
                                     study_fingerprint, verify_shard_data)
from repro.resilience import Fault, FaultPlan
from repro.resilience.faults import ENV_VAR
from repro.webaudio import ENGINE_VERSION

STUDY = dict(iterations=5, vectors=("dc", "fft", "hybrid"), seed=7)
USERS = 30
SHARD = 9  # 30/9 -> shards of 9, 9, 9, 3

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")

#: the files a sharded run leaves behind, by name pattern
ARTEFACTS = ("shard_*.jsonl", "shard_*.manifest.json", "shard_report_*.json",
             "analysis.json")


def _artefacts(out_dir) -> dict[str, bytes]:
    """Every shard file and the merged report in ``out_dir``, by name."""
    return {path.name: path.read_bytes() for pattern in ARTEFACTS
            for path in Path(out_dir).glob(pattern)}


def _assert_same_artefacts(out_dir, clean_dir):
    """``out_dir`` holds the same shard files and ``analysis.json`` as
    ``clean_dir``, name for name and byte for byte."""
    got, clean = _artefacts(out_dir), _artefacts(clean_dir)
    assert sorted(got) == sorted(clean)
    assert [name for name in clean if got[name] != clean[name]] == []


def _paths_in(out_dir, shard) -> ShardPaths:
    """Where ``shard`` of the module's run lives in a copy at ``out_dir``."""
    return ShardPaths.in_dir(str(out_dir), shard.start, shard.stop)


@pytest.fixture(autouse=True)
def _no_leaked_fault_plan(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)


@pytest.fixture(scope="module")
def sharded(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("shards"))
    result = run_study_sharded(USERS, SHARD, out, workers=0, **STUDY)
    return result


@pytest.fixture(scope="module")
def monolithic():
    return run_study(USERS, workers=0, **STUDY)


class TestSliceSampler:
    def test_slice_equals_full_population_slice(self):
        full = sample_population(40, seed=2021)
        for start, stop in [(0, 40), (0, 1), (17, 33), (39, 40)]:
            part = sample_population_slice(40, 2021, start, stop)
            assert [d.describe() for d in part] \
                == [d.describe() for d in full[start:stop]]

    def test_slice_bounds_validated(self):
        with pytest.raises(ValueError):
            sample_population_slice(10, 2021, 5, 5)
        with pytest.raises(ValueError, match="sub-range"):
            sample_population_slice(10, 2021, 6, 5)
        with pytest.raises(ValueError):
            sample_population_slice(10, 2021, -1, 5)
        with pytest.raises(ValueError):
            sample_population_slice(10, 2021, 0, 11)


class TestShardGeometry:
    def test_ranges_partition(self):
        assert shard_ranges(30, 9) == [(0, 9), (9, 18), (18, 27), (27, 30)]
        assert shard_ranges(9, 9) == [(0, 9)]
        assert shard_ranges(8, 9) == [(0, 8)]

    @given(user_count=st.integers(1, 5000), shard_size=st.integers(1, 6000))
    def test_ranges_are_an_exact_partition(self, user_count, shard_size):
        """The driver's shards come only from ``shard_ranges``: each is
        non-empty and at most ``shard_size`` users, only the last may be
        short, and in order they cover ``[0, user_count)`` with no gap,
        no overlap and nothing outside it."""
        ranges = shard_ranges(user_count, shard_size)
        assert len(ranges) == -(-user_count // shard_size)
        assert ranges[0][0] == 0 and ranges[-1][1] == user_count
        for (start, stop), (after, _) in zip(ranges, ranges[1:]):
            assert stop - start == shard_size and stop == after
        start, stop = ranges[-1]
        assert 0 < stop - start <= shard_size

    @pytest.mark.parametrize("bad", [0, -1, True, 2.5, "9", np.True_,
                                     np.float64(9.0)])
    def test_non_positive_shard_size_rejected(self, bad, tmp_path):
        with pytest.raises(ValueError, match="shard_size"):
            run_study_sharded(10, bad, str(tmp_path), workers=0, **STUDY)

    def test_numpy_integer_geometry_writes_the_same_manifests(self,
                                                              tmp_path):
        plain = run_study_sharded(10, 4, str(tmp_path / "int"), workers=0,
                                  **STUDY)
        numpy = run_study_sharded(np.int64(10), np.int64(4),
                                  str(tmp_path / "np"), workers=0, **STUDY)
        assert len(plain.shards) == len(numpy.shards) == 3
        for a, b in zip(plain.shards, numpy.shards):
            assert open(a.paths.manifest, "rb").read() \
                == open(b.paths.manifest, "rb").read()

    @pytest.mark.parametrize("geometry", [dict(shard_size=0),
                                          dict(shard_size=None)])
    def test_rejected_geometry_leaves_no_side_effects(self, geometry,
                                                      tmp_path):
        """Bad shard geometry is rejected before the event log opens: no
        new log file, and an existing log's torn tail is left untouched
        (not quarantined to a ``.corrupt`` sidecar)."""
        fresh = tmp_path / "fresh.jsonl"
        with pytest.raises(ValueError):
            run_study_sharded(10, out_dir=str(tmp_path / "out"), workers=0,
                              event_log_path=str(fresh), **geometry, **STUDY)
        assert not fresh.exists()
        torn = tmp_path / "torn.jsonl"
        torn.write_bytes(b'{"kind": "study.start"}\n{"kind": "sha')
        before = torn.read_bytes()
        with pytest.raises(ValueError):
            run_study_sharded(10, out_dir=str(tmp_path / "out"), workers=0,
                              event_log_path=str(torn), **geometry, **STUDY)
        assert torn.read_bytes() == before
        assert not (tmp_path / "torn.jsonl.corrupt").exists()
        assert not (tmp_path / "out").exists()

    def test_front_door_validation_mirrors_run_study(self, tmp_path):
        with pytest.raises(ValueError, match="user_count"):
            run_study_sharded(0, 5, str(tmp_path), workers=0, **STUDY)
        with pytest.raises(ValueError, match="iterations"):
            run_study_sharded(10, 5, str(tmp_path), workers=0, iterations=0,
                              vectors=("dc",), seed=7)
        with pytest.raises(KeyError):
            run_study_sharded(10, 5, str(tmp_path), workers=0, iterations=2,
                              vectors=("nope",), seed=7)


class TestShardedBitIdentity:
    def test_combined_dataset_equals_monolithic(self, sharded, monolithic,
                                                tmp_path):
        records = [record for shard in sharded.shards
                   for record in iter_shard_records(shard.paths.data)]
        vectors = STUDY["vectors"]
        combined = StudyDataset(
            seed=STUDY["seed"], user_count=len(records),
            iterations=STUDY["iterations"], vectors=vectors,
            users=[record["user"] for record in records],
            series={v: {record["user"]["id"]: record["series"][v]
                        for record in records} for v in vectors})
        a, b = tmp_path / "sharded.json", tmp_path / "mono.json"
        combined.save(str(a))
        monolithic.save(str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_manifest_stamps(self, sharded):
        for shard in sharded.shards:
            manifest = load_manifest(shard.paths.manifest)
            assert manifest["engine_version"] == ENGINE_VERSION
            assert manifest["study"] == study_fingerprint(
                STUDY["seed"], USERS, STUDY["iterations"], STUDY["vectors"])
            assert manifest["shard"]["users"] == shard.stop - shard.start
            assert manifest["data"]["records"] == shard.stop - shard.start
            assert os.path.getsize(shard.paths.data) \
                == manifest["data"]["bytes"]

    def test_committed_run_leaves_only_its_artefacts(self, sharded):
        """Each shard leaves its data, manifest and report, and the run
        its merged analysis: nothing else outlives the commit."""
        expected = {"analysis.json"} | {
            os.path.basename(path) for shard in sharded.shards
            for path in (shard.paths.data, shard.paths.manifest,
                         shard.paths.report)}
        assert sorted(os.listdir(sharded.out_dir)) == sorted(expected)

    def test_resume_skips_completed_shards(self, sharded):
        before = open(sharded.merged_report_path).read()
        again = run_study_sharded(USERS, SHARD, sharded.out_dir, workers=0,
                                  **STUDY)
        assert all(s.resumed for s in again.shards)
        assert open(again.merged_report_path).read() == before


class TestKillResume:
    def test_sigkill_mid_shard_then_resume(self, sharded, tmp_path):
        """The real thing: a child running the sharded study, cache off
        and every render slowed by a delay fault, is SIGKILLed once its
        first shard commits. A fault-free rerun into the same directory
        resumes the committed shards, renders the rest, and leaves every
        shard file and ``analysis.json`` byte-identical to an
        uninterrupted run's; its event log names each resumed shard. The
        killed atomic write may leave a ``tmp*.tmp`` file, so the files
        are compared by name."""
        plan = FaultPlan(seed=1, faults=(
            Fault(kind="delay", fraction=1.0, times=None, seconds=0.01),))
        plan_path = plan.save(str(tmp_path / "slow.json"))
        out = tmp_path / "shards"
        script = tmp_path / "child.py"
        script.write_text(textwrap.dedent(f"""
            from repro import RenderCache, run_study_sharded
            run_study_sharded({USERS}, {SHARD}, {str(out)!r}, workers=0,
                              cache=RenderCache(disabled=True),
                              iterations={STUDY['iterations']},
                              vectors={STUDY['vectors']!r},
                              seed={STUDY['seed']})
        """))
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        env[ENV_VAR] = plan_path
        child = subprocess.Popen([sys.executable, str(script)], env=env)
        try:
            deadline = time.monotonic() + 60.0
            while not list(out.glob("shard_*.manifest.json")):
                if child.poll() is not None:
                    pytest.fail("child exited before committing a shard")
                if time.monotonic() > deadline:
                    pytest.fail("child never committed a shard")
                time.sleep(0.02)
        finally:
            child.kill()  # SIGKILL: mid-shard, once a manifest is seen
            child.wait(timeout=30)
        assert child.returncode == -signal.SIGKILL
        assert not (out / "analysis.json").exists()

        recorder = Recorder()
        events_path = str(tmp_path / "events.jsonl")
        run_study_sharded(USERS, SHARD, str(out), workers=0,
                          recorder=recorder, event_log_path=events_path,
                          **STUDY)
        counters = recorder.counters
        assert counters.get("shard.resumed", 0) >= 1
        assert counters.get("shard.completed", 0) >= 1
        events, problems = read_events(events_path)
        kinds = [event["kind"] for event in events]
        assert problems == []
        assert kinds.count("shard.resume") == counters["shard.resumed"]
        assert kinds.count("shard.end") == counters["shard.completed"]
        _assert_same_artefacts(out, sharded.out_dir)

    @pytest.mark.parametrize("committed", [0, 1, 2, 3, 4])
    def test_rerun_resumes_exactly_the_committed_shards(self, committed,
                                                        sharded, tmp_path):
        """A kill at each shard boundary, laid out on a copy of the
        module's run: the first ``committed`` shards keep their files; the
        next has its data file but no manifest or report (the kill landed
        between the data write and the commit); later shards and
        ``analysis.json`` do not exist. The rerun resumes exactly the
        committed shards, renders the rest (an uncommitted data file is
        overwritten, neither trusted nor quarantined) and ends with the
        uninterrupted run's bytes."""
        out = tmp_path / "shards"
        shutil.copytree(sharded.out_dir, out)
        os.remove(out / "analysis.json")
        for shard in sharded.shards[committed:]:
            paths = _paths_in(out, shard)
            os.remove(paths.manifest)
            os.remove(paths.report)
            if shard.index > committed:
                os.remove(paths.data)

        recorder = Recorder()
        events_path = str(tmp_path / "events.jsonl")
        again = run_study_sharded(USERS, SHARD, str(out), workers=0,
                                  recorder=recorder,
                                  event_log_path=events_path, **STUDY)
        total = len(sharded.shards)
        assert [shard.resumed for shard in again.shards] \
            == [index < committed for index in range(total)]
        assert not any(shard.requarantined for shard in again.shards)
        counters = recorder.counters
        assert counters.get("shard.resumed", 0) == committed
        assert counters.get("shard.completed", 0) == total - committed
        assert "shard.quarantined" not in counters
        events, problems = read_events(events_path)
        assert problems == []
        assert [(event["shard"], event["records"]) for event in events
                if event["kind"] == "shard.resume"] \
            == [(shard.index, shard.stop - shard.start)
                for shard in sharded.shards[:committed]]
        assert [event["shard"] for event in events
                if event["kind"] == "shard.start"] \
            == list(range(committed, total))
        _assert_same_artefacts(out, sharded.out_dir)


class TestShardedRunReport:
    """The run report comes from the writer both drivers share."""

    def test_three_shard_report_validates(self, tmp_path):
        report_path = tmp_path / "report.json"
        events_path = tmp_path / "events.jsonl"
        result = run_study_sharded(9, 3, str(tmp_path / "shards"), workers=0,
                                   report_path=str(report_path),
                                   event_log_path=str(events_path), **STUDY)
        assert len(result.shards) == 3
        payload = json.loads(report_path.read_text())
        assert validate_report(payload, str(tmp_path)) == []
        assert [p["name"] for p in payload["phases"]] == list(STUDY_PHASES)
        assert payload["workload"]["shards"] == 3
        assert payload["workload"]["grid_items"] == 9 * 5 * 3
        utilization = payload["pool"]["utilization"]
        assert isinstance(utilization, float) and 0 < utilization <= 1
        assert payload["events"]["path"] == str(events_path)

    def test_fully_resumed_run_report_validates(self, tmp_path):
        """A rerun that resumes every shard renders nothing and still
        writes a report with every phase."""
        out = str(tmp_path / "shards")
        run_study_sharded(9, 3, out, workers=0, **STUDY)
        report_path = tmp_path / "report.json"
        again = run_study_sharded(9, 3, out, workers=0,
                                  report_path=str(report_path), **STUDY)
        assert all(shard.resumed for shard in again.shards)
        payload = json.loads(report_path.read_text())
        assert validate_report(payload, str(tmp_path)) == []
        assert payload["pool"]["jobs"] == 0

    def test_fully_resumed_run_reports_the_whole_grid(self, tmp_path):
        """``grid_items`` counts the study's grid, not the shards this run
        rendered: a rerun that resumes every shard reports the first
        run's grid, in its report and in its ``study.end`` event."""
        out = str(tmp_path / "shards")
        grids = []
        for name in ("first", "again"):
            report_path = tmp_path / f"{name}.json"
            events_path = tmp_path / f"{name}.jsonl"
            run_study_sharded(9, 3, out, workers=0,
                              report_path=str(report_path),
                              event_log_path=str(events_path), **STUDY)
            events = [json.loads(line)
                      for line in events_path.read_text().splitlines()]
            end, = (e for e in events if e["kind"] == "study.end")
            workload = json.loads(report_path.read_text())["workload"]
            grids.append((workload["grid_items"], end["grid_items"]))
        assert grids == [(9 * 5 * 3, 9 * 5 * 3)] * 2

    def test_report_names_the_largest_pool_a_shard_used(self, tmp_path):
        """Each shard pools min(workers, its jobs): here 2 for the first
        shard's two groups and 0 for the second, whose one class the
        shared cache already holds. The report names the largest."""
        report_path = tmp_path / "report.json"
        run_study_sharded(5, 4, str(tmp_path / "shards"), iterations=2,
                          vectors=("dc",), seed=7, workers=2,
                          report_path=str(report_path))
        pool = json.loads(report_path.read_text())["pool"]
        assert pool["jobs"] == 2
        assert pool["workers"] == 2 and pool["pooled"] is True


def _rewrite_json(path, change):
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    change(payload)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def _bump_first_count(report):
    report["vectors"]["dc"]["first"][0] += 1


def _foreign_seed(report):
    report["study"]["seed"] = 99


#: ways a resumed shard's report can be unsound: ``(report path, the
#: report path of another shard of the run) -> None`` damages it in place
REPORT_DAMAGE = {
    "missing": lambda path, other: os.remove(path),
    "not_json": lambda path, other: Path(path).write_bytes(b'{"kind": '),
    "not_utf8": lambda path, other: Path(path).write_bytes(b"\xff\xfe\x00"),
    "not_an_object": lambda path, other: Path(path).write_bytes(b"[]\n"),
    "tampered_counts": lambda path, other: _rewrite_json(path,
                                                         _bump_first_count),
    "foreign_study": lambda path, other: _rewrite_json(path, _foreign_seed),
    "other_shard": lambda path, other: shutil.copyfile(other, path),
}


class TestResumedShardReports:
    """A resumed shard's report is reused when it is sound and belongs
    to this study and shard; otherwise it is rebuilt from the verified
    shard records, so the merge always sees the bytes a fresh run
    writes."""

    def _rerun(self, sharded, tmp_path, monkeypatch, damage=None):
        """Rerun a private copy of the module's run (every shard resumes)
        after ``damage`` to shard 1's report; returns the rerun, the
        report paths the driver rebuilt, and shard 1's original bytes."""
        out = tmp_path / "shards"
        shutil.copytree(sharded.out_dir, out)
        first, other = (shard.paths.report.replace(sharded.out_dir, str(out))
                        for shard in sharded.shards[1:3])
        original = Path(first).read_bytes()
        if damage is not None:
            damage(first, other)
        built = []
        build = shards_mod._build_and_write_shard_report

        def counting_build(paths, manifest, dataset):
            built.append(paths.report)
            return build(paths, manifest, dataset)

        monkeypatch.setattr(shards_mod, "_build_and_write_shard_report",
                            counting_build)
        again = run_study_sharded(USERS, SHARD, str(out), workers=0, **STUDY)
        assert all(shard.resumed for shard in again.shards)
        assert Path(again.merged_report_path).read_bytes() \
            == Path(sharded.merged_report_path).read_bytes()
        return built, first, original

    def test_sound_reports_are_reused(self, sharded, tmp_path, monkeypatch):
        built, _, _ = self._rerun(sharded, tmp_path, monkeypatch)
        assert built == []

    @pytest.mark.parametrize("damage", sorted(REPORT_DAMAGE))
    def test_unsound_report_is_rebuilt(self, damage, sharded, tmp_path,
                                       monkeypatch):
        built, path, original = self._rerun(sharded, tmp_path, monkeypatch,
                                            REPORT_DAMAGE[damage])
        assert built == [path]
        assert Path(path).read_bytes() == original


#: ways a committed shard stops being trustworthy before a rerun:
#: ``ShardPaths -> None`` damages it in place
COMMIT_DAMAGE = {
    "torn_manifest": lambda paths: Path(paths.manifest).write_bytes(
        Path(paths.manifest).read_bytes()[:40]),
    "foreign_manifest": lambda paths: _rewrite_json(
        paths.manifest, lambda manifest: manifest.update(kind="other")),
    "data_missing": lambda paths: os.remove(paths.data),
}


class TestShardIntegrity:
    def _shard_copy(self, sharded, tmp_path, index=1):
        """A private copy of one rendered shard (so module-scoped state
        stays pristine) plus a full rerun directory."""
        out = tmp_path / "shards"
        shutil.copytree(sharded.out_dir, out)
        result = run_study_sharded(USERS, SHARD, str(out), workers=0, **STUDY)
        return result, result.shards[index]

    def test_truncated_shard_quarantined_with_named_error(
            self, sharded, tmp_path):
        _, shard = self._shard_copy(sharded, tmp_path)
        data = open(shard.paths.data, "rb").read()
        with open(shard.paths.data, "wb") as fh:
            fh.write(data[: len(data) // 2])
        with pytest.raises(ShardIntegrityError, match="torn or truncated"):
            verify_shard_data(shard.paths, load_manifest(shard.paths.manifest))
        assert os.path.exists(shard.paths.data + ".corrupt")
        assert not os.path.exists(shard.paths.data)
        assert not os.path.exists(shard.paths.manifest)

    def test_bitrot_quarantined_with_named_error(self, sharded, tmp_path):
        _, shard = self._shard_copy(sharded, tmp_path)
        data = bytearray(open(shard.paths.data, "rb").read())
        data[len(data) // 2] ^= 0xFF  # same size, different bytes
        with open(shard.paths.data, "wb") as fh:
            fh.write(bytes(data))
        with pytest.raises(ShardIntegrityError, match="sha256"):
            verify_shard_data(shard.paths, load_manifest(shard.paths.manifest))
        assert os.path.exists(shard.paths.data + ".corrupt")

    def test_driver_rerenders_quarantined_shard_identically(
            self, sharded, tmp_path):
        result, shard = self._shard_copy(sharded, tmp_path)
        before = open(result.merged_report_path).read()
        with open(shard.paths.data, "ab") as fh:
            fh.write(b"torn garbage\n")
        again = run_study_sharded(USERS, SHARD, result.out_dir, workers=0,
                                  **STUDY)
        redone = again.shards[shard.index]
        assert redone.requarantined and not redone.resumed
        assert os.path.exists(shard.paths.data + ".corrupt")
        assert open(again.merged_report_path).read() == before

    @pytest.mark.parametrize("damage", sorted(COMMIT_DAMAGE))
    def test_untrusted_commit_is_quarantined_and_rerendered(
            self, damage, sharded, tmp_path):
        """A shard whose commit point cannot be trusted (a torn or foreign
        manifest, or a manifest whose data file is gone) is quarantined
        and rendered again, never resumed; the rerun ends with the
        uninterrupted run's bytes."""
        out = tmp_path / "shards"
        shutil.copytree(sharded.out_dir, out)
        paths = _paths_in(out, sharded.shards[1])
        COMMIT_DAMAGE[damage](paths)
        recorder = Recorder()
        again = run_study_sharded(USERS, SHARD, str(out), workers=0,
                                  recorder=recorder, **STUDY)
        redone = again.shards[1]
        assert redone.requarantined and not redone.resumed
        assert recorder.counters["shard.quarantined"] == 1
        assert recorder.counters["shard.resumed"] == len(again.shards) - 1
        assert recorder.counters["shard.completed"] == 1
        assert os.path.exists(paths.manifest + ".corrupt")
        _assert_same_artefacts(out, sharded.out_dir)

    def test_foreign_study_manifest_raises_named_field(self, sharded,
                                                       tmp_path):
        result, _ = self._shard_copy(sharded, tmp_path)
        with pytest.raises(ValueError, match="seed"):
            run_study_sharded(USERS, SHARD, result.out_dir, workers=0,
                              iterations=STUDY["iterations"],
                              vectors=STUDY["vectors"], seed=99)

    def test_engine_version_mismatch_raises(self, sharded, tmp_path):
        result, shard = self._shard_copy(sharded, tmp_path)
        manifest = json.load(open(shard.paths.manifest))
        manifest["engine_version"] = "0-stale"
        with open(shard.paths.manifest, "w") as fh:
            json.dump(manifest, fh)
        with pytest.raises(ValueError, match="engine_version"):
            run_study_sharded(USERS, SHARD, result.out_dir, workers=0,
                              **STUDY)

    def test_check_shard_study_names_each_field(self, sharded):
        manifest = load_manifest(sharded.shards[0].paths.manifest)
        good = dict(manifest["study"])
        for field in ("seed", "user_count", "iterations", "vectors"):
            bad = dict(good)
            bad[field] = [9, 9] if field == "vectors" else 999
            with pytest.raises(ValueError, match=field):
                check_shard_study(manifest, bad, "m")

    def test_one_shards_files_never_resume_another(self, sharded, tmp_path):
        """Shard 0's manifest and data, copied to shard 1's names, pass
        every integrity check but name the wrong range: the run refuses
        them rather than resume shard 1 with shard 0's users."""
        result, shard = self._shard_copy(sharded, tmp_path)
        first = result.shards[0]
        shutil.copyfile(first.paths.manifest, shard.paths.manifest)
        shutil.copyfile(first.paths.data, shard.paths.data)
        with pytest.raises(ValueError, match=r"covers range \(0, 9\), "
                                             r"expected \(9, 18\)"):
            run_study_sharded(USERS, SHARD, result.out_dir, workers=0,
                              **STUDY)


class TestStreamingSave:
    def test_streamed_bytes_equal_whole_document_dump(self, monolithic,
                                                      tmp_path):
        path = tmp_path / "ds.json"
        monolithic.save(str(path))
        assert path.read_text() \
            == json.dumps(monolithic.to_dict()) + "\n"
        assert StudyDataset.load(str(path)) == monolithic

    def test_empty_dataset_streams_valid_json(self, tmp_path):
        ds = StudyDataset(seed=1, user_count=0, iterations=1,
                          vectors=("dc",), users=[], series={"dc": {}})
        path = tmp_path / "empty.json"
        ds.save(str(path))
        assert path.read_text() == json.dumps(ds.to_dict()) + "\n"
