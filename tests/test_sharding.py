"""Sharded study pipeline: slice-sampler determinism, shard geometry
validation, crash-safe shard format (manifest commit point, torn-file
quarantine), resume semantics, and the headline invariant — a sharded
run reassembles to the byte-identical monolithic dataset."""
import json
import os

import pytest

from repro import run_study, run_study_sharded
from repro.population import ShardIntegrityError, shard_ranges
from repro.population.dataset import StudyDataset
from repro.population.sampler import sample_population, sample_population_slice
from repro.obs.report import STUDY_PHASES, validate_report
from repro.population.shards import (check_shard_study, load_manifest,
                                     load_shard)
from repro.resilience import load_checkpoint, study_fingerprint
from repro.resilience.faults import ENV_VAR
from repro.webaudio import ENGINE_VERSION

STUDY = dict(iterations=5, vectors=("dc", "fft", "hybrid"), seed=7)
USERS = 30
SHARD = 9  # 30/9 -> shards of 9, 9, 9, 3


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

    @pytest.mark.parametrize("bad", [0, -1, True, 2.5, "9"])
    def test_non_positive_shard_size_rejected(self, bad, tmp_path):
        with pytest.raises(ValueError, match="shard_size"):
            run_study_sharded(10, bad, str(tmp_path), workers=0, **STUDY)

    def test_empty_range_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            run_study_sharded(10, None, str(tmp_path), workers=0,
                              ranges=[(0, 5), (5, 5)], **STUDY)

    def test_overlapping_ranges_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="overlap"):
            run_study_sharded(10, None, str(tmp_path), workers=0,
                              ranges=[(0, 6), (4, 10)], **STUDY)

    def test_out_of_bounds_range_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="outside"):
            run_study_sharded(10, None, str(tmp_path), workers=0,
                              ranges=[(0, 11)], **STUDY)

    def test_numpy_integer_ranges_write_the_same_manifests(self, tmp_path):
        import numpy as np
        ranges = [(0, 4), (4, 10)]
        plain = run_study_sharded(10, None, str(tmp_path / "int"), workers=0,
                                  ranges=ranges, analyze=False, **STUDY)
        numpy = run_study_sharded(
            np.int64(10), None, str(tmp_path / "np"), workers=0,
            ranges=[tuple(np.int64(v) for v in r) for r in ranges],
            analyze=False, **STUDY)
        for a, b in zip(plain.manifest_paths(), numpy.manifest_paths()):
            assert open(a, "rb").read() == open(b, "rb").read()

    def test_bool_range_bounds_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="shard range"):
            run_study_sharded(10, None, str(tmp_path), workers=0,
                              ranges=[(False, True)], **STUDY)

    @pytest.mark.parametrize("geometry", [dict(shard_size=0),
                                          dict(shard_size=None,
                                               ranges=[(0, 20)])])
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
        combined = sharded.to_dataset()
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

    def test_shard_checkpoints_removed_after_commit(self, sharded):
        for shard in sharded.shards:
            assert not os.path.exists(shard.paths.checkpoint)

    def test_resume_skips_completed_shards(self, sharded):
        before = open(sharded.merged_report_path).read()
        again = run_study_sharded(USERS, SHARD, sharded.out_dir, workers=0,
                                  **STUDY)
        assert all(s.resumed for s in again.shards)
        assert open(again.merged_report_path).read() == before


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


class TestShardIntegrity:
    def _shard_copy(self, sharded, tmp_path, index=1):
        """A private copy of one rendered shard (so module-scoped state
        stays pristine) plus a full rerun directory."""
        import shutil
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
            load_shard(shard.paths.manifest)
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
            load_shard(shard.paths.manifest)
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

    def test_shard_checkpoint_cannot_resume_other_shard(self, tmp_path):
        base = study_fingerprint(7, 30, 5, ("dc",))
        from repro.resilience import write_checkpoint
        path = str(tmp_path / "s.ckpt")
        write_checkpoint(path, dict(base, shard=[0, 9]), {"k": "a" * 32}, 1)
        with pytest.raises(ValueError, match="shard"):
            load_checkpoint(path, dict(base, shard=[9, 18]))


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
