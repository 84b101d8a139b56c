"""The `python -m repro.analysis` CLI: dataset in -> deterministic
report out, schema-checked by the `repro.obs.report` CLI (kind
dispatch), with clean failures on corrupt inputs."""
import json

import pytest

from repro import run_study
from repro.analysis import validate_analysis_report
from repro.analysis.__main__ import main as analysis_main
from repro.obs.report import main as report_main

STUDY = dict(user_count=20, iterations=5, vectors=("dc", "fft"),
             seed=13, workers=0)


@pytest.fixture(scope="module")
def dataset_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("analysis") / "dataset.json"
    run_study(**STUDY).save(str(path))
    return str(path)


class TestCli:
    def test_out_writes_valid_report(self, dataset_path, tmp_path):
        out = tmp_path / "report.json"
        assert analysis_main([dataset_path, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["kind"] == "repro.analysis.report"
        assert validate_analysis_report(payload) == []
        assert payload["dataset"]["user_count"] == STUDY["user_count"]

    def test_repeated_runs_are_byte_identical(self, dataset_path, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert analysis_main([dataset_path, "--out", str(a)]) == 0
        assert analysis_main([dataset_path, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_worker_count_does_not_change_report_bytes(self, tmp_path):
        """The acceptance criterion: a dataset rendered at any worker
        count must analyse to the same bytes."""
        for workers, name in ((0, "serial"), (2, "pooled")):
            ds = tmp_path / f"{name}.json"
            run_study(user_count=30, iterations=6, vectors=("dc", "fft"),
                      seed=2021, workers=workers).save(str(ds))
            assert analysis_main([str(ds), "--out",
                                  str(tmp_path / f"{name}-rep.json")]) == 0
        assert (tmp_path / "serial-rep.json").read_bytes() \
            == (tmp_path / "pooled-rep.json").read_bytes()

    def test_stdout_json_mode(self, dataset_path, capsys):
        assert analysis_main([dataset_path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert validate_analysis_report(payload) == []

    @pytest.mark.parametrize("flag", ["--shard", "--render", "--check"])
    def test_checking_and_rendering_are_not_its_modes(self, dataset_path,
                                                      flag, capsys):
        """The CLI builds and writes reports; `python -m repro.obs.report`
        checks and renders them, and shard reports come from the driver."""
        with pytest.raises(SystemExit) as exited:
            analysis_main([dataset_path, flag])
        assert exited.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_timings_go_to_stderr_not_report(self, dataset_path, tmp_path,
                                             capsys):
        out = tmp_path / "rep.json"
        assert analysis_main([dataset_path, "--out", str(out),
                              "--timings"]) == 0
        err = capsys.readouterr().err
        assert "span" in err and "collation.edges" in err
        assert "span" not in out.read_text()  # timings never enter the report

    def test_missing_dataset_fails(self, tmp_path, capsys):
        assert analysis_main([str(tmp_path / "nope.json")]) == 2
        assert "no dataset" in capsys.readouterr().err

    def test_invalid_json_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{torn")
        assert analysis_main([str(bad)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("merge", [False, True])
    def test_directory_path_fails_naming_it(self, tmp_path, capsys, merge):
        argv = ["--merge"] if merge else []
        assert analysis_main(argv + [str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path) in err
        assert len(err.splitlines()) == 1

    def test_non_utf8_shard_report_fails_naming_it(self, tmp_path, capsys):
        bad = tmp_path / "shard_report_0.json"
        bad.write_bytes(b"\xff\xfe\x00")
        assert analysis_main(["--merge", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(bad) in err
        assert len(err.splitlines()) == 1

    def test_inconsistent_dataset_fails_with_field(self, dataset_path,
                                                   tmp_path, capsys):
        payload = json.loads(open(dataset_path).read())
        payload["meta"]["user_count"] += 1
        bad = tmp_path / "inconsistent.json"
        bad.write_text(json.dumps(payload))
        assert analysis_main([str(bad)]) == 2
        assert "user_count" in capsys.readouterr().err


class TestObsReportDispatch:
    @pytest.fixture()
    def report_path(self, dataset_path, tmp_path):
        out = tmp_path / "report.json"
        assert analysis_main([dataset_path, "--out", str(out)]) == 0
        return str(out)

    def test_check_passes(self, report_path, capsys):
        assert report_main([report_path, "--check"]) == 0
        assert capsys.readouterr().out == ""

    def test_renders_tables(self, report_path, capsys):
        assert report_main([report_path]) == 0
        out = capsys.readouterr().out
        assert "== analysis report ==" in out
        assert "diversity" in out and "stability" in out

    def test_tampered_stability_rejected(self, report_path, tmp_path, capsys):
        """The validator enforces the collation invariant itself, not just
        types: a report claiming an uncollapsed fickle user fails."""
        payload = json.loads(open(report_path).read())
        stab = payload["vectors"]["fft"]["stability"]
        stab["collated_stable_users"] -= 1
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(payload))
        assert report_main([str(bad), "--check"]) == 2
        assert "collation invariant" in capsys.readouterr().err

    def test_tampered_anonymity_sets_rejected(self, report_path, tmp_path,
                                              capsys):
        payload = json.loads(open(report_path).read())
        sizes = payload["vectors"]["dc"]["collated"]["per_user"][
            "anonymity_sets"]["sizes"]
        first = next(iter(sizes))
        sizes[first] += 1  # sets no longer partition the population
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(payload))
        assert report_main([str(bad), "--check"]) == 2
        assert "anonymity_sets" in capsys.readouterr().err

    def test_wrong_kind_still_checked_as_run_report(self, report_path,
                                                    tmp_path, capsys):
        payload = json.loads(open(report_path).read())
        payload["kind"] = "something.else"
        bad = tmp_path / "unknown-kind.json"
        bad.write_text(json.dumps(payload))
        assert report_main([str(bad), "--check"]) == 2


class TestTablesCli:
    """`python -m repro.analysis --tables` plus its obs.report dispatch."""

    @pytest.fixture(scope="class")
    def battery_dataset(self, tmp_path_factory):
        from repro.vectors import FULL_BATTERY
        path = tmp_path_factory.mktemp("tables") / "dataset.json"
        run_study(user_count=40, iterations=6, vectors=FULL_BATTERY,
                  seed=17, workers=0).save(str(path))
        return str(path)

    def test_tables_out_is_valid_and_byte_identical(self, battery_dataset,
                                                    tmp_path):
        from repro.analysis.tables import validate_tables_report
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert analysis_main([battery_dataset, "--tables",
                              "--out", str(a)]) == 0
        assert analysis_main([battery_dataset, "--tables",
                              "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        payload = json.loads(a.read_text())
        assert payload["kind"] == "repro.analysis.tables"
        assert validate_tables_report(payload) == []

    def test_obs_report_dispatches_on_tables_kind(self, battery_dataset,
                                                  tmp_path, capsys):
        out = tmp_path / "tables.json"
        assert analysis_main([battery_dataset, "--tables",
                              "--out", str(out)]) == 0
        capsys.readouterr()
        assert report_main([str(out), "--check"]) == 0
        assert capsys.readouterr().out == ""
        assert report_main([str(out)]) == 0
        rendered = capsys.readouterr().out
        assert "tables report" in rendered and "additive value" in rendered

    def test_obs_report_rejects_bad_schema_version(self, battery_dataset,
                                                   tmp_path, capsys):
        """The satellite: --check validates the tables kind's schema
        version instead of silently accepting any payload."""
        out = tmp_path / "tables.json"
        assert analysis_main([battery_dataset, "--tables",
                              "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        payload["format"] = 99
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert report_main([str(bad), "--check"]) == 2
        assert "format" in capsys.readouterr().err

    def test_unknown_vector_in_dataset_is_a_named_error(self, battery_dataset,
                                                        tmp_path, capsys):
        """The satellite: a dataset naming an unregistered vector fails
        with `error: unknown vector ...`, not a traceback."""
        payload = json.loads(open(battery_dataset).read())
        payload["meta"]["vectors"] = list(payload["meta"]["vectors"]) \
            + ["nope"]
        payload["series"]["nope"] = payload["series"]["dc"]
        bad = tmp_path / "unknown-vector.json"
        bad.write_text(json.dumps(payload))
        assert analysis_main([str(bad), "--tables"]) == 2
        err = capsys.readouterr().err
        assert "unknown vector 'nope'" in err
        assert "Traceback" not in err

    def test_tables_excludes_shard_modes(self, battery_dataset, capsys):
        with pytest.raises(SystemExit):
            analysis_main([battery_dataset, "--tables", "--merge"])
