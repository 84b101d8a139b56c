"""Property tests of every report validator against single-field damage.

One small valid document of each kind — run report, analysis report,
tables report, shard report, saved dataset, shard manifest — is built
once. Hypothesis then draws a path into it and a replacement: any JSON
value, deletion, or +1 on a number. Whatever the damage, the validator
returns a list of strings and never raises, and a document it accepts
renders without raising — a run report both as tables and as a Chrome
trace built from it and its events sidecar. ``HYPOTHESIS_PROFILE=deep``
searches longer (profiles are registered in the root ``conftest.py``).
"""
import atexit
import copy
import functools
import json
import os
import shutil
import tempfile

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro import StudyDataset, run_study, run_study_sharded
from repro.analysis import (build_analysis_report, build_tables_report,
                            render_analysis_report, render_shard_report,
                            render_tables_report, validate_analysis_report,
                            validate_shard_report, validate_tables_report)
from repro.obs.report import main as report_main
from repro.obs.report import render_report, validate_report
from repro.obs.trace import main as trace_main
from repro.obs.trace import validate_trace
from repro.population.shards import ShardIntegrityError, load_manifest
from repro.vectors.registry import UnknownVectorError


@functools.lru_cache(maxsize=None)
def documents() -> dict:
    """The valid documents, keyed by kind (built on first use)."""
    root = tempfile.mkdtemp(prefix="report-schemas-")
    atexit.register(shutil.rmtree, root, ignore_errors=True)
    report_path = os.path.join(root, "report.json")
    dataset = run_study(user_count=4, iterations=4,
                        vectors=("dc", "fft", "mathjs", "canvas"), seed=9,
                        workers=0, report_path=report_path,
                        event_log_path=os.path.join(root, "events.jsonl"))
    sharded = run_study_sharded(6, 3, os.path.join(root, "shards"),
                                iterations=3, vectors=("dc", "fft"), seed=3,
                                workers=0)
    with open(report_path, encoding="utf-8") as fh:
        run = json.load(fh)
    with open(sharded.shards[0].paths.report, encoding="utf-8") as fh:
        shard = json.load(fh)
    with open(sharded.shards[0].paths.manifest, encoding="utf-8") as fh:
        manifest = json.load(fh)
    return {"root": root, "run": run, "dataset": dataset.to_dict(),
            "analysis": build_analysis_report(dataset),
            "tables": build_tables_report(dataset), "shard": shard,
            "manifest": manifest}


def _dataset_problems(doc) -> list[str]:
    try:
        StudyDataset.from_dict(doc)
    except ValueError as exc:
        return [str(exc)]
    return []


def _analyse(doc) -> None:
    """What ``python -m repro.analysis`` builds from a loaded dataset."""
    dataset = StudyDataset.from_dict(doc)
    build_analysis_report(dataset)
    try:
        build_tables_report(dataset)
    except UnknownVectorError:  # the CLI reports it as a named error
        pass


def _manifest_problems(doc) -> list[str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "shard.manifest.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        try:
            load_manifest(path)
        except ShardIntegrityError as exc:
            return [str(exc)]
    return []


def _render_run(doc) -> None:
    """Both renderings of an accepted run report: its tables, and the
    Chrome trace exported from it and its events sidecar."""
    render_report(doc)
    path = os.path.join(documents()["root"], "damaged-report.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    out = path + ".trace.json"
    assert trace_main([path, "--out", out]) == 0
    with open(out, encoding="utf-8") as fh:
        assert validate_trace(json.load(fh)) == []


#: kind -> (validator, renderer or None)
CHECKS = {
    "run": (lambda doc: validate_report(doc, documents()["root"]),
            _render_run),
    "analysis": (validate_analysis_report, render_analysis_report),
    "tables": (validate_tables_report, render_tables_report),
    "shard": (validate_shard_report, render_shard_report),
    "dataset": (_dataset_problems, _analyse),
    "manifest": (_manifest_problems, None),
}

#: integers too large for a float (float() raises OverflowError)
HUGE_INTEGERS = (st.integers(min_value=2**1024, max_value=2**1100)
                 | st.integers(min_value=-2**1100, max_value=-2**1024))

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | HUGE_INTEGERS
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6)

DAMAGE = st.one_of(JSON.map(lambda value: ("set", value)),
                   st.just(("delete",)), st.just(("increment",)))


def _paths(node, prefix=()):
    """Every path into ``node``."""
    items = node.items() if isinstance(node, dict) \
        else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _mutations(kind):
    return st.tuples(
        st.deferred(lambda: st.sampled_from(list(_paths(documents()[kind])))),
        DAMAGE)


def _damaged(doc, path, damage):
    doc = copy.deepcopy(doc)
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    key = path[-1]
    if damage[0] == "set":
        parent[key] = damage[1]
    elif damage[0] == "delete":
        del parent[key]
    elif isinstance(parent[key], (int, float)) \
            and not isinstance(parent[key], bool):
        parent[key] += 1
    return doc


def _check(kind, mutation):
    validate, render = CHECKS[kind]
    doc = _damaged(documents()[kind], *mutation)
    problems = validate(doc)
    assert isinstance(problems, list)
    assert all(isinstance(problem, str) for problem in problems)
    if not problems and render is not None:
        render(doc)


def test_every_document_is_valid_undamaged():
    for kind, (validate, render) in CHECKS.items():
        assert validate(documents()[kind]) == [], kind


@given(mutation=_mutations("run"))
@example(mutation=(("events", "kinds", "cache.miss"), ("set", "many")))
@example(mutation=(("spans", 1, "start_s"), ("set", -1)))
@example(mutation=(("histograms", "render.batch_size", "max"), ("delete",)))
def test_run_report(mutation):
    _check("run", mutation)


@given(mutation=_mutations("analysis"))
@example(mutation=(("dataset", "vectors"), ("set", [1, "dc"])))
@example(mutation=(("vectors", "dc", "stability", "raw_mean_distinct_efps"),
                   ("delete",)))
def test_analysis_report(mutation):
    _check("analysis", mutation)


@given(mutation=_mutations("tables"))
@example(mutation=(("audio_vectors",), ("set", [["dc"]])))
@example(mutation=(("table2_audio", "vectors", "dc", "entropy_bits"),
                   ("set", 10**400)))
@example(mutation=(("match_scores", "splits", 0), ("increment",)))
@example(mutation=(("table2_audio", "combined"), ("delete",)))
def test_tables_report(mutation):
    _check("tables", mutation)


@given(mutation=_mutations("shard"))
def test_shard_report(mutation):
    _check("shard", mutation)


@given(mutation=_mutations("dataset"))
@example(mutation=(("users", 0, "os"), ("set", [])))
def test_dataset(mutation):
    _check("dataset", mutation)


@given(mutation=_mutations("manifest"))
def test_shard_manifest(mutation):
    _check("manifest", mutation)


# -- fixed cases: documents that used to crash ``--check`` --------------------

def _check_cli(tmp_path, capsys, doc) -> tuple[int, str]:
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code = report_main([str(path), "--check"])
    return code, capsys.readouterr().err


def test_check_names_non_string_dataset_vectors(tmp_path, capsys):
    doc = copy.deepcopy(documents()["analysis"])
    doc["dataset"]["vectors"] = [1, "dc"]
    code, err = _check_cli(tmp_path, capsys, doc)
    assert code == 2
    assert "dataset.vectors[0] must be a string" in err
    assert "Traceback" not in err


def test_check_names_integer_too_large_for_a_float(tmp_path, capsys):
    doc = copy.deepcopy(documents()["tables"])
    doc["table2_audio"]["vectors"]["dc"]["entropy_bits"] = 10**400
    code, err = _check_cli(tmp_path, capsys, doc)
    assert code == 2
    assert "table2_audio.vectors['dc'].entropy_bits must be numeric" in err
    assert "Traceback" not in err


def test_non_numeric_event_tally_is_a_problem():
    doc = copy.deepcopy(documents()["run"])
    doc["events"]["kinds"]["cache.miss"] = "many"
    problems = validate_report(doc, documents()["root"])
    assert any("events.kinds['cache.miss']" in p for p in problems)


def test_nested_audio_vector_list_is_a_problem():
    doc = copy.deepcopy(documents()["tables"])
    doc["audio_vectors"] = [["dc"]]
    assert any("audio_vectors[0]" in p for p in validate_tables_report(doc))


def test_check_exits_2_on_list_valued_kind(tmp_path, capsys):
    doc = copy.deepcopy(documents()["analysis"])
    doc["kind"] = ["repro.analysis.report"]
    code, err = _check_cli(tmp_path, capsys, doc)
    assert code == 2
    assert "kind must be 'repro.obs.report'" in err


@pytest.mark.parametrize("raw", [b"\xff\xfe{}",
                                 b'{"kind": ' + b"9" * 5000 + b"}"])
def test_check_exits_2_on_undecodable_json(tmp_path, capsys, raw):
    path = tmp_path / "doc.json"
    path.write_bytes(raw)
    assert report_main([str(path), "--check"]) == 2
    assert "is not valid JSON" in capsys.readouterr().err


# -- fixed cases: run reports and sidecars that used to crash trace export ---

@pytest.mark.parametrize("path, damage, named", [
    (("spans", 0, "start_s"), ("delete",), "spans[0].start_s missing"),
    (("spans", 0), ("set", 1), "spans[0] must be an object"),
    (("spans", 0, "attrs"), ("set", [1]), "spans[0].attrs must be an object"),
    (("spans", 0, "duration_s"), ("set", "x"),
     "spans[0].duration_s must be a non-negative number"),
    (("events", "pid"), ("set", "x"),
     "events.pid must be a non-negative integer"),
    (("spans",), ("set", 5), "spans must be an array"),
], ids=["no-start_s", "span-not-object", "attrs-list", "duration-string",
        "events-pid-string", "spans-number"])
def test_damaged_run_report_is_refused_by_check_and_export(
        tmp_path, capsys, path, damage, named):
    doc = _damaged(documents()["run"], path, damage)
    code, err = _check_cli(tmp_path, capsys, doc)
    assert code == 2
    assert named in err
    assert trace_main([str(tmp_path / "doc.json"), "--check"]) == 2
    err = capsys.readouterr().err
    assert named in err
    assert "Traceback" not in err


@pytest.mark.parametrize("field, value", [
    ("t_mono_s", "x"), ("pid", [1]), ("seq", "a"), ("t_mono_s", -1)])
def test_damaged_sidecar_line_is_refused_by_check_and_export(
        tmp_path, capsys, field, value):
    run = copy.deepcopy(documents()["run"])
    with open(run["events"]["path"], encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    event = json.loads(lines[0])
    event[field] = value
    lines[0] = json.dumps(event)
    sidecar = tmp_path / "events.jsonl"
    sidecar.write_text("\n".join(lines) + "\n")
    run["events"]["path"] = str(sidecar)
    report = tmp_path / "report.json"
    report.write_text(json.dumps(run))
    named = f"event at line 1: {field} must be"
    assert report_main([str(report), "--check"]) == 2
    assert named in capsys.readouterr().err
    for exported in (report, sidecar):
        assert trace_main([str(exported), "--check"]) == 2
        assert named in capsys.readouterr().err
