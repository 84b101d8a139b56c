"""Self-tests of the pipeline benchmark, on the --smoke sizes.

  python -m pytest benchmarks/pipeline -q
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import bench_pipeline as bench
import compare

BENCHMARK = os.path.join(bench.ROOT, "BENCHMARK.json")
SECONDS = 0.2


@pytest.fixture(scope="module")
def spec():
    with open(BENCHMARK, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def traced():
    """One traced smoke run per workload, plus the shim targets as they
    were before any run."""
    originals = {target: getattr(*target) for target in bench.SHIM_TARGETS}
    docs = {name: bench.run(name, seconds=SECONDS, trace=True, smoke=True)
            for name in bench.WORKLOADS}
    return docs, originals


def _last_line(doc: dict, trace: int) -> dict:
    return json.loads(bench.contract_line({**doc, "trace": trace}))


def test_output_names_exactly_the_listed_metrics(traced, spec):
    docs, _ = traced
    for key, trace in (("end_to_end", 0), ("per_layer", 1)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        for name, doc in docs.items():
            line = _last_line(doc, trace)
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert line["correct"] is True, (name, doc["checks"])
            assert line["attempted"] >= 1 and line["failed"] == 0
            got = {m: v["unit"] for m, v in line["metrics"].items()}
            assert got == listed, (name, key)
    for doc in docs.values():
        for m in doc["metrics"].values():
            assert m["value"] > 0 and m["samples"] >= 1


def test_listed_workloads_exist(spec):
    listed = [w["name"] for w in spec["workloads"]]
    assert listed == [name for name in bench.WORKLOADS if name in listed]
    assert len(listed) >= 2


def test_shims_are_uninstalled_after_trace(traced):
    _, originals = traced
    for target, original in originals.items():
        assert getattr(*target) is original, target


def test_untraced_measurement_runs_unpatched(monkeypatch):
    originals = {target: getattr(*target) for target in bench.SHIM_TARGETS}
    real = bench.study_measure
    calls = []

    def checked(*args, recorder=None, **kwargs):
        if recorder is None:
            calls.append(all(getattr(*t) is o for t, o in originals.items()))
        return real(*args, recorder=recorder, **kwargs)

    monkeypatch.setattr(bench, "study_measure", checked)
    bench.run("paper-warm", seconds=SECONDS, trace=True, smoke=True)
    assert calls == [True]


def test_trace_spans_nest_and_self_time_is_non_negative(traced):
    docs, _ = traced
    for name, doc in docs.items():
        spans = doc["_recorder"].spans
        ids = [s["id"] for s in spans]
        assert len(ids) == len(set(ids))
        roots = [s for s in spans if s["parent"] is None]
        assert [s["name"] for s in roots] == ["workload"], name
        assert all(s["parent"] is None or s["parent"] in ids for s in spans)
        for span_name, row in bench.self_times(spans).items():
            assert row["self_s"] >= -1e-9, (name, span_name)
            assert row["layer"] != "other", span_name


def test_injected_sheds_raise_failed_fraction(monkeypatch):
    monkeypatch.setattr(bench, "SERVICE_CONFIG",
                        bench.ServiceConfig(queue_limit=1, batch_max=1))
    doc = bench.run("service-mixed", seconds=SECONDS, smoke=True)
    assert doc["failed"] > 0 and doc["failed_fraction"] > 0
    # every typed refusal the service counted is a failed operation
    counts = doc["service_counts"]
    assert doc["failed"] == counts["shed_queue_full"] + counts["shed_deadline"]
    # refused visits are sent again, so the stream still lands whole
    assert doc["checks"]["stream_complete"]


def test_cli_last_line_and_exit_code(tmp_path):
    out = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(bench.HERE, "bench_pipeline.py"),
         "--workload", "render-uncached", "--seed", "7", "--seconds", "0.1",
         "--trace", "0", "--smoke", "--out", str(out)],
        stdout=subprocess.PIPE, text=True, timeout=120)
    assert proc.returncode == 0
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] is True
    doc = json.loads(out.read_text())
    assert doc["seed"] == 7 and doc["hardware"]["cpu_count"] >= 1
    assert {"affinity_cores", "numpy", "engine_version", "pool_workers",
            "pooled", "fsync_p50_ms", "fsync_p99_ms"} <= set(doc["hardware"])
    # every timed repetition has the host speed measured while it ran
    costs = doc["repetitions_probe_s"]
    assert len(costs) == len(doc["repetitions_s"]) and min(costs) > 0


def test_fails_without_the_program(tmp_path):
    """Beside only BENCHMARK.json and its own files it must exit non-zero
    and print no result."""
    shutil.copy(BENCHMARK, tmp_path / "BENCHMARK.json")
    shutil.copytree(bench.HERE, tmp_path / "benchmarks" / "pipeline",
                    ignore=shutil.ignore_patterns("out", "results",
                                                  "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/pipeline/bench_pipeline.py",
         "--workload", "paper-cold", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=120, env={k: v for k, v in os.environ.items()
                                     if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert not proc.stdout.strip().startswith("{")
    assert "{" not in proc.stdout


def _doc(workload, seed, value, failed=0):
    return {"benchmark": "bench_pipeline", "workload": workload,
            "seed": seed, "trace": 0, "failed": failed,
            "metrics": {"items_per_s": {"value": value}}}


def test_compare_verdicts():
    bench_doc = {"workloads": [{"name": "w"}], "end_to_end": [
        {"name": "items_per_s", "unit": "1/s", "better": "higher",
         "bound": 0.1}]}
    base = {"w": [_doc("w", s, 100.0 + s % 3) for s in range(10)]}

    def verdict_for(change_values, failed=0):
        change = {"w": [_doc("w", s, v, failed)
                        for s, v in enumerate(change_values)]}
        return compare.compare(base, change, bench_doc)[0]["verdict"]

    assert verdict_for([100.0 + s % 3 for s in range(10)]) == "no worse"
    assert verdict_for([120.0 + s % 3 for s in range(10)]) == "improved"
    assert verdict_for([120.0 + s % 3 for s in range(10)],
                       failed=1) == "no worse"
    assert verdict_for([80.0 + s % 3 for s in range(10)]) == "worse"
    noisy = {"w": [_doc("w", s, 100.0 * (1 + 0.3 * (s % 2)))
                   for s in range(10)]}
    row = compare.compare(noisy, noisy, bench_doc)[0]
    assert row["verdict"] == "unresolved"
