#!/usr/bin/env python3
"""Paper-scale pipeline benchmark: four workloads, end-to-end metrics,
per-layer attribution recorded from outside the program.

Workloads (inputs are generated from ``--seed``; the program under test
receives only those inputs):

  paper-cold       2093 users x 30 iterations x the 11-vector battery with
                   a fresh RenderCache per repetition, then collate ->
                   Tables report: the paper's headline run as a user runs it
  paper-warm       the same grid against a pre-filled cache: zero engine
                   renders, so sampling, planning, probing, assembly and
                   analysis do all the work
  render-uncached  528 users x 30 x the 7 audio vectors, cache disabled:
                   110,880 real renders, the webaudio and FFT kernels dominate
  service-mixed    the 2093 x 30 dc+fft visit stream through the online
                   service: open loop (ingest + lookup), closed loop,
                   cold WAL replay

One workload (the arguments BENCHMARK.json's command is run with):

  python3 benchmarks/pipeline/bench_pipeline.py --workload paper-cold \\
      --seed 1 --seconds 40 --trace 0

All four, each in its own child process:

  python3 benchmarks/pipeline/bench_pipeline.py

The last stdout line of a one-workload run is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``). The
full result (sample counts, correctness gates, hardware notes) goes to
``--out``; a traced run also writes ``<out>.trace.json``. The exit code
is 0 only when every correctness gate passed. Study timings are stated
at a nominal host speed, measured while they run (``SpeedProbe``). See
README.md.
"""
from __future__ import annotations

import time

#: set-up is timed from here, before the package imports
_T0 = time.perf_counter()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
from collections import deque  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
PINS_PATH = os.path.join(HERE, "pins.json")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import repro.population.study as study_module  # noqa: E402
import repro.service.engine as engine_module  # noqa: E402
from repro import RenderCache, Recorder, StudyDataset, run_study  # noqa: E402
from repro.analysis import (build_tables_report, collate,  # noqa: E402
                            collate_vector, dumps_tables_report,
                            validate_tables_report)
from repro.obs import NULL_RECORDER  # noqa: E402
from repro.resilience import StudyExecutionError  # noqa: E402
from repro.service import (FingerprintService, IngestShed,  # noqa: E402
                           ServiceConfig, ServiceState, SnapshotStore,
                           WriteAheadLog, visits_from_dataset)
from repro.service.wal import SNAPSHOT_NAME  # noqa: E402
from repro.vectors import AUDIO_VECTORS, FULL_BATTERY  # noqa: E402
from repro.webaudio import ENGINE_VERSION  # noqa: E402


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int                # default workload seed
    users: int
    iterations: int
    vectors: tuple
    cache: str               # "cold" | "warm" | "off"; "" for the service
    report: bool             # also collate + build the Tables report

    @property
    def service(self) -> bool:
        return not self.cache


WORKLOADS = {w.name: w for w in (
    Workload("paper-cold", 2021, 2093, 30, FULL_BATTERY, "cold", True),
    Workload("paper-warm", 2021, 2093, 30, FULL_BATTERY, "warm", True),
    Workload("render-uncached", 528, 528, 30, AUDIO_VECTORS, "off", False),
    Workload("service-mixed", 2021, 2093, 30, ("dc", "fft"), "", False),
)}

#: (users, iterations) under --smoke: seconds-long runs for the self-tests
SMOKE_SIZES = {"paper-cold": (40, 6), "paper-warm": (40, 6),
               "render-uncached": (12, 4), "service-mixed": (40, 6)}

MIN_REPS = 3            # timed repetitions per run, however short --seconds
SETUPS = 3              # set-ups per run (this process + fresh-process probes)
WARMUP_USERS = 16       # users in the discarded warm-up study
FSYNC_PROBES = 1000     # fsyncs timed during set-up (hardware note)

# host-speed probe (study workloads): a fixed loop timed every period
PROBE_PERIOD_S = 0.1
PROBE_LOOP = 20_000
#: the loop's CPU time on an unloaded 2.1 GHz Xeon vCPU: study timings are
#: stated at the host speed where the loop costs this much
NOMINAL_PROBE_S = 0.0012

# service-mixed traffic: the paper's re-identification problem as a stream
SPOOF_FRACTION = 0.10
BOT_FRACTION = 0.05
INGEST_RATE = 1000.0    # open loop, visits/s
LOOKUP_RATE = 500.0     # open loop, lookups/s of already-seen users
OPEN_LOOP_SHARE = 0.5   # of --seconds spent in the open loop
CLIENTS = 32            # closed loop: outstanding ingests
WINDOW = 2000           # closed loop: acknowledged visits per rate sample
MAX_SENDS = 1000        # closed loop: sends of one visit before giving up
RESEND_BACKOFF_S = 0.001
REPLAYS = 3
_LOOKUP_STREAM = 0x100C
#: the service's configuration; the self-tests swap in a tiny queue to
#: force sheds
SERVICE_CONFIG = ServiceConfig()

END_TO_END = {            # name -> unit
    "items_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

_NODE_LABELS = ("Oscillator", "Gain", "DynamicsCompressor", "Analyser",
                "ChannelMerger", "ScriptProcessor", "Destination")
_FFT_BACKENDS = ("numpy", "radix2", "splitradix", "bluestein")

PER_LAYER = {             # name -> unit
    "population.sample_s": "s",
    "population.plan_s": "s",
    "population.probe_s": "s",
    "population.assemble_s": "s",
    "population.grid_items": "count",
    "population.distinct_classes": "count",
    "population.cache_hit_rate": "ratio",
    "render.phase_s": "s",
    "render.renders": "count",
    "render.batches": "count",
    "render.batch_size_mean": "count",
    **{f"render.batch_wall_s.{v}": "s" for v in FULL_BATTERY},
    "render.pool_utilization": "ratio",
    "resilience.retried_jobs": "count",
    "resilience.pool_rebuilds": "count",
    **{f"webaudio.node_s.{label}": "s" for label in _NODE_LABELS},
    **{f"webaudio.fft_s.{name}": "s" for name in _FFT_BACKENDS},
    "webaudio.profiled_share": "ratio",
    "analysis.collate_s": "s",
    "analysis.tables_s": "s",
    "analysis.report_bytes": "B",
    "service.ingest_p50_ms": "ms",
    "service.ingest_p99_ms": "ms",
    "service.ingest_samples": "count",
    "service.lookup_p50_ms": "ms",
    "service.lookup_p99_ms": "ms",
    "service.lookup_samples": "count",
    "service.loadgen.late_p99_ms": "ms",
    "service.ingest_visits_per_s": "1/s",
    "service.replay_visits_per_s": "1/s",
    "service.wal.append_s": "s",
    "service.wal.appends": "count",
    "service.wal.sync_s": "s",
    "service.wal.syncs": "count",
    "service.snapshot.write_s": "s",
    "service.snapshot.writes": "count",
    "service.snapshot.bytes_mean": "B",
    "service.snapshot.view_s": "s",
    "service.state.apply_s": "s",
    "service.state.lookup_s": "s",
    "service.replay.read_wal_s": "s",
    "service.replay.apply_s": "s",
    "service.sheds.queue_full": "count",
    "service.sheds.deadline": "count",
    "service.lookups_degraded": "count",
    "trace.overhead": "ratio",
}

#: span name -> layer, for the self-time table
SPAN_LAYERS = {
    "workload": "bench", "measure": "bench", "study": "bench",
    "sample": "population", "plan": "population", "probe": "population",
    "assemble": "population", "render": "render",
    "analysis": "analysis", "collate": "analysis", "tables": "analysis",
    "open_loop": "service", "closed_loop": "service", "replay": "service",
    "recover": "service",
}


def workload(name: str, smoke: bool = False) -> Workload:
    w = WORKLOADS[name]
    if smoke:
        users, iterations = SMOKE_SIZES[name]
        w = replace(w, users=users, iterations=iterations)
    return w


# -- small helpers ------------------------------------------------------------

def percentile(values, q: float) -> float:
    """Nearest-rank percentile; refused requests enter as ``inf``."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def content_digest(dataset) -> str:
    """sha256 over a dataset's metadata, users and every eFP series in
    canonical order: equal digests mean equal datasets, so repetitions
    are checked without keeping a reference dataset alive (it would
    double the memory the run reports)."""
    digest = hashlib.sha256(json.dumps(
        [dataset.seed, dataset.user_count, dataset.iterations,
         list(dataset.vectors), dataset.users]).encode())
    for vector in dataset.vectors:
        series = dataset.series[vector]
        for uid in dataset.user_ids():
            digest.update(f"\n{vector}|{uid}|{','.join(series[uid])}".encode())
    return digest.hexdigest()


def saved_sha256(dataset) -> str:
    """sha256 of the bytes ``StudyDataset.save`` writes (what pins.json
    pins)."""
    with tempfile.TemporaryDirectory(prefix="pin-", dir=OUT) as scratch:
        path = os.path.join(scratch, "dataset.json")
        dataset.save(path)
        digest = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
    return digest.hexdigest()


def load_pin(name: str, seed: int, smoke: bool):
    """The pinned digests for this workload, or None when the run is not
    at the workload's default seed and full size."""
    w = WORKLOADS[name]
    if smoke or seed != w.seed:
        return None
    with open(PINS_PATH, encoding="utf-8") as fh:
        return json.load(fh)[name]


def fsync_probe(directory: str, samples: int = FSYNC_PROBES) -> dict:
    """Time ``samples`` append+fsync pairs: the service numbers depend
    on this disk."""
    path = os.path.join(directory, "fsync-probe")
    latencies = []
    with open(path, "w", encoding="ascii") as fh:
        for _ in range(samples):
            fh.write("x" * 200 + "\n")
            fh.flush()
            start = time.perf_counter()
            os.fsync(fh.fileno())
            latencies.append(time.perf_counter() - start)
    os.unlink(path)
    return {"fsync_p50_ms": percentile(latencies, 0.5) * 1e3,
            "fsync_p99_ms": percentile(latencies, 0.99) * 1e3,
            "fsync_samples": len(latencies)}


def peak_rss_mb() -> tuple[float, float]:
    """Peak RSS of this process and of its largest waited-for child (a
    pool worker), from getrusage (KiB on Linux)."""
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0)


def reap_pool_workers(timeout: float = 60.0) -> None:
    """``run_study`` shuts its process pool down without waiting; join the
    executor threads, which reap the worker processes, so every process
    this benchmark started has ended (and counts in RUSAGE_CHILDREN)."""
    for thread in threading.enumerate():
        if thread is not threading.current_thread():
            thread.join(timeout)


class SpeedProbe:
    """The host's CPU speed, sampled while timed work runs.

    The benchmark's vCPUs share physical cores with other tenants, so the
    same study can take twice as long from one minute to the next, and
    the slow stretches outlast a run. A thread times PROBE_LOOP iterations
    of a fixed pure-Python loop every PROBE_PERIOD_S, in its own CPU time
    (waiting for the GIL or for a core does not count, a slower core
    does). ``scale`` restates a wall time at the speed where the loop
    costs NOMINAL_PROBE_S. The loop holds the GIL about 1% of the time.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (taken at, CPU s)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self) -> None:
        start = time.thread_time()
        acc = 0
        for i in range(PROBE_LOOP):
            acc += i * i % 7
        self.samples.append((time.perf_counter(),
                             time.thread_time() - start))

    def _run(self) -> None:
        while not self._stop.wait(PROBE_PERIOD_S):
            self._sample()

    def __enter__(self) -> "SpeedProbe":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> bool:
        self._stop.set()
        self._thread.join()
        return False

    def cost(self, start: float, end: float) -> float:
        """The loop's cost over ``[start, end]``: the harmonic mean of the
        samples, since work done in a span is the sum of its time slices
        over their costs. A span shorter than the period takes the last
        sample before it ended."""
        inside = [cpu for at, cpu in self.samples if start <= at <= end]
        return statistics.harmonic_mean(inside or [
            cpu for at, cpu in self.samples if at <= end][-1:])

    @staticmethod
    def scale(wall: float, cost: float) -> float:
        return wall * NOMINAL_PROBE_S / cost


def hardware(pool: dict, fsync: dict) -> dict:
    affinity = (len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else None)
    return {"cpu_count": os.cpu_count(), "affinity_cores": affinity,
            "platform": platform.platform(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__,
            "engine_version": ENGINE_VERSION,
            "pool_workers": pool.get("workers"),
            "pooled": bool(pool.get("workers")), **fsync}


# -- shims: timing wrappers patched where the caller looks the name up --------

#: every (owner, attribute) a shim may replace; the self-tests check each
#: is the original again after a traced run
SHIM_TARGETS = (
    (study_module, "sample_population"),
    (study_module, "SupervisedExecutor"),
    (engine_module, "read_wal"),
    (WriteAheadLog, "append"),
    (WriteAheadLog, "sync"),
    (SnapshotStore, "write"),
    (ServiceState, "apply"),
    (ServiceState, "lookup"),
)


class Shims:
    """Install wrappers for the life of a ``with`` block; the originals
    are always put back on exit."""

    def __init__(self):
        self._saved = []

    def patch(self, owner, name: str, wrap) -> None:
        if (owner, name) not in SHIM_TARGETS:
            raise ValueError(f"{name} is not a declared shim target")
        original = getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, wrap(original))

    def __enter__(self) -> "Shims":
        return self

    def __exit__(self, *exc) -> bool:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)
        return False


def _spanned(recorder, name: str):
    def wrap(original):
        def spanned(*args, **kwargs):
            with recorder.span(name):
                return original(*args, **kwargs)
        return spanned
    return wrap


def _timed(recorder, metric, nested: list):
    """Observe each call's self time into the histogram ``metric`` (or the
    name ``metric()`` picks at call time). ``nested`` is the stack shared
    by all timed wrappers of a run: time spent in a timed call made from
    inside another (a WAL append's own fsync) counts only for the inner
    one."""
    def wrap(original):
        def timed(*args, **kwargs):
            nested.append(0.0)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                inner = nested.pop()
                if nested:
                    nested[-1] += elapsed
                recorder.observe(metric() if callable(metric) else metric,
                                 elapsed - inner)
        return timed
    return wrap


def _pool_spy(pool: dict):
    """Record the pool size ``run_study`` hands its executor (0 = inline)."""
    def wrap(original):
        def spy(*args, **kwargs):
            pool["workers"] = kwargs.get("workers", 0)
            return original(*args, **kwargs)
        return spy
    return wrap


# -- trace analysis -----------------------------------------------------------

def self_times(spans) -> dict:
    """span name -> {"count", "total_s", "self_s"}; a span's self time is
    its duration minus the part of it its child spans cover (children of
    one span are sequential, so that part is their summed duration)."""
    covered: dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] = (covered.get(span["parent"], 0.0)
                                       + span["duration_s"])
    table: dict[str, dict] = {}
    for span in spans:
        row = table.setdefault(span["name"], {
            "layer": SPAN_LAYERS.get(span["name"], "other"),
            "count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += span["duration_s"]
        row["self_s"] += span["duration_s"] - covered.get(span["id"], 0.0)
    return table


def format_trace_table(table: dict, histograms: dict) -> str:
    lines = [f"  {'span':<14}{'layer':<12}{'count':>8}{'total_s':>12}"
             f"{'self_s':>12}"]
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"  {name:<14}{row['layer']:<12}{row['count']:>8}"
                     f"{row['total_s']:>12.4f}{row['self_s']:>12.4f}")
    timed = {k: h for k, h in histograms.items()
             if k.startswith("service.") and k.endswith("_s")}
    if timed:
        lines.append(f"  {'histogram':<34}{'count':>8}{'total_s':>12}"
                     f"{'p99_ms':>10}")
        for name, hist in sorted(timed.items()):
            lines.append(f"  {name:<34}{hist.count:>8}{hist.total:>12.4f}"
                         f"{hist.approx_quantile(0.99) * 1e3:>10.3f}")
    return "\n".join(lines)


# -- study workloads ----------------------------------------------------------

@dataclass
class StudyState:
    warm_cache: RenderCache | None
    #: the output every repetition must equal: content digest and report
    reference: tuple | None
    pool: dict
    #: sha256 of the saved dataset, taken once when the run is pinned
    saved_sha256: str | None = None


def _cache_for(w: Workload, state: StudyState) -> RenderCache:
    if w.cache == "warm":
        return state.warm_cache
    return RenderCache(disabled=w.cache == "off")


def study_once(w: Workload, seed: int, cache: RenderCache, recorder=None):
    """One timed repetition: ``run_study`` call to finished Tables report."""
    rec = recorder if recorder is not None else NULL_RECORDER
    start = time.perf_counter()
    with rec.span("study"):
        dataset = run_study(w.users, w.iterations, w.vectors, seed=seed,
                            cache=cache, recorder=recorder)
        report = None
        if w.report:
            with rec.span("analysis"):
                collations = collate(dataset, recorder=rec)
                report = dumps_tables_report(
                    build_tables_report(dataset, collations, recorder=rec))
    return time.perf_counter() - start, dataset, report


def study_setup(w: Workload, seed: int) -> StudyState:
    """Everything before the first timed repetition: the cache fill
    (paper-warm) and a discarded warm-up study of WARMUP_USERS users,
    which runs every code path once and reports the pool size the driver
    uses."""
    state = StudyState(None, None, {})
    if w.cache == "warm":
        state.warm_cache = RenderCache()
        _, dataset, report = study_once(w, seed, state.warm_cache)
        state.reference = (content_digest(dataset), report)
    warmup = replace(w, users=min(w.users, WARMUP_USERS))
    with Shims() as shims:
        shims.patch(study_module, "SupervisedExecutor", _pool_spy(state.pool))
        study_once(warmup, seed, _cache_for(w, state))
    return state


def study_measure(w, seed, state, seconds, recorder=None, reps=None,
                  pinned=False) -> dict:
    """Timed repetitions until ``seconds`` of them (at least MIN_REPS), or
    exactly ``reps``; every output is compared with the reference. Each
    wall time is also restated at the nominal host speed (``scaled``)."""
    walls, costs, errors = [], [], []
    identical = True
    hits = misses = 0
    report_bytes = 0
    with SpeedProbe() as probe:
        while True:
            done = len(walls) + len(errors)
            if reps is not None and done >= reps:
                break
            if reps is None and done >= MIN_REPS and sum(walls) >= seconds:
                break
            cache = _cache_for(w, state)
            cache.reset_stats()
            gc.collect()
            start = time.perf_counter()
            try:
                wall, dataset, report = study_once(w, seed, cache, recorder)
            except StudyExecutionError as exc:
                errors.append(str(exc))
                continue
            walls.append(wall)
            costs.append(probe.cost(start, time.perf_counter()))
            hits += cache.hits
            misses += cache.misses
            report_bytes = len(report) if report is not None else 0
            output = (content_digest(dataset), report)
            if state.reference is None:
                state.reference = output
            identical = identical and output == state.reference
            if pinned and state.saved_sha256 is None:
                state.saved_sha256 = saved_sha256(dataset)
            del dataset, report
    return {"walls": walls, "probe_s": costs, "errors": errors,
            "scaled": [SpeedProbe.scale(wall, cost)
                       for wall, cost in zip(walls, costs)],
            "identical": identical,
            "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "report_bytes": report_bytes}


def study_checks(w, seed, state, measured) -> dict:
    digest, report = state.reference
    checks = {"warm_equals_cold" if w.cache == "warm"
              else "repetitions_identical": measured["identical"]}
    if report is not None:
        checks["tables_report_valid"] = \
            validate_tables_report(json.loads(report)) == []
    if w.cache == "off":
        cached = run_study(w.users, w.iterations, w.vectors, seed=seed,
                           cache=RenderCache())
        checks["uncached_equals_cached"] = content_digest(cached) == digest
    return checks


def study_digests(state) -> dict:
    report = state.reference[1]
    digests = {"dataset_sha256": state.saved_sha256}
    if report is not None:
        digests["report_sha256"] = sha256(report)
    return digests


def study_layers(rec, measured, pool) -> dict:
    reps = len(measured["walls"])
    selfs = self_times(rec.spans)

    def per_rep(name):
        return selfs[name]["self_s"] / reps if name in selfs else 0.0

    counters, hists = rec.counters, rec.histograms
    plan = next((s.get("attrs", {}) for s in reversed(rec.spans)
                 if s["name"] == "plan"), {})
    nodes: dict[str, float] = {}
    for per_stack in rec.node_profile.values():
        for label, entry in per_stack.items():
            nodes[label] = nodes.get(label, 0.0) + entry["seconds"]
    batches = counters.get("render.batches", 0)
    render_s = sum(s["duration_s"] for s in rec.spans if s["name"] == "render")
    busy = hists["pool.task_wall_s"].total if "pool.task_wall_s" in hists \
        else 0.0
    lanes = pool.get("workers") or 1
    return {
        "population.sample_s": per_rep("sample"),
        "population.plan_s": per_rep("plan"),
        "population.probe_s": per_rep("probe"),
        "population.assemble_s": per_rep("assemble"),
        "population.grid_items": plan.get("grid_items", 0),
        "population.distinct_classes": plan.get("distinct_classes", 0),
        "population.cache_hit_rate": measured["hit_rate"],
        "render.phase_s": per_rep("render"),
        "render.renders": counters.get("render.renders", 0) / reps,
        "render.batches": batches / reps,
        "render.batch_size_mean": (hists["render.batch_size"].mean
                                   if "render.batch_size" in hists else 0.0),
        **{f"render.batch_wall_s.{v}":
           (hists[f"render.batch_wall_s.{v}"].total / reps
            if f"render.batch_wall_s.{v}" in hists else 0.0)
           for v in FULL_BATTERY},
        "render.pool_utilization": (busy / (render_s * lanes)
                                    if render_s > 0 else 0.0),
        "resilience.retried_jobs": counters.get("retry.retries", 0) / reps,
        "resilience.pool_rebuilds":
            counters.get("degraded.pool_rebuilds", 0) / reps,
        **{f"webaudio.node_s.{label}": nodes.get(label, 0.0) / reps
           for label in _NODE_LABELS},
        **{f"webaudio.fft_s.{name}": nodes.get(f"fft:{name}", 0.0) / reps
           for name in _FFT_BACKENDS},
        "webaudio.profiled_share": (counters.get("render.profiled_renders", 0)
                                    / batches if batches else 0.0),
        "analysis.collate_s": per_rep("collate"),
        "analysis.tables_s": per_rep("tables"),
        "analysis.report_bytes": measured["report_bytes"],
    }


def run_study_workload(w, seed, state, seconds, trace, pinned):
    measured = study_measure(w, seed, state, seconds, pinned=pinned)
    scaled, errors = measured["scaled"], measured["errors"]
    result = {
        "pool": state.pool,
        "attempted": len(scaled) + len(errors), "failed": len(errors),
        "errors": errors,
        "metrics": {
            "items_per_s": (w.users * w.iterations * len(w.vectors)
                            / statistics.median(scaled), len(scaled)),
            "latency_p50_ms": (statistics.median(scaled) * 1e3, len(scaled)),
        },
        "digests": lambda: study_digests(state),
        "repetitions_s": measured["walls"],
        "probe_s": measured["probe_s"],
    }
    if trace:
        rec = Recorder()
        with Shims() as shims, \
                rec.span("workload", workload=w.name, seed=seed):
            shims.patch(study_module, "sample_population",
                        _spanned(rec, "sample"))
            with rec.span("measure"):
                traced = study_measure(w, seed, state, seconds, recorder=rec,
                                       reps=len(scaled) + len(errors))
        layers = study_layers(rec, traced, state.pool)
        layers["trace.overhead"] = (statistics.median(traced["scaled"])
                                    / statistics.median(scaled))
        result["trace"] = (rec, layers)
    result["checks"] = study_checks(w, seed, state, measured)
    if trace:
        result["checks"]["traced_equals_untraced"] = traced["identical"]
    return result


# -- the service workload -----------------------------------------------------

def service_setup(w: Workload, seed: int):
    """The visit stream: a dc+fft study expanded into interleaved visits
    with spoofer and bot classes. Returns ``(dataset, visits)``."""
    dataset = run_study(w.users, w.iterations, w.vectors, seed=seed,
                        cache=RenderCache())
    visits = visits_from_dataset(dataset, seed=seed,
                                 spoof_fraction=SPOOF_FRACTION,
                                 bot_fraction=BOT_FRACTION, interleave=True)
    return dataset, visits


def lookup_schedule(visits, seed: int, n_ingest: int):
    """(due offset s, user) pairs: LOOKUP_RATE lookups of users whose
    visits were due strictly before the lookup."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, _LOOKUP_STREAM]))
    out = []
    for j in range(int(n_ingest * LOOKUP_RATE / INGEST_RATE)):
        due = (j + 1) / LOOKUP_RATE
        seen = max(1, min(n_ingest, int(due * INGEST_RATE)))
        out.append((due, visits[int(rng.integers(0, seen))].user))
    return out


async def open_loop(service, visits, lookups, n_ingest, route) -> dict:
    """Offer INGEST_RATE visits/s plus LOOKUP_RATE lookups/s on a fixed
    schedule, whatever the service does. Latency runs from each request's
    due time; a refused or errored request counts as ``inf``."""
    events = sorted([(i / INGEST_RATE, 0, visits[i]) for i in range(n_ingest)]
                    + [(due, 1, user) for due, user in lookups],
                    key=lambda e: (e[0], e[1]))
    out = {"ingest": [], "lookup": [], "late": [], "refused": [],
           "errors": []}

    async def ingest(visit, due):
        try:
            result = await service.ingest(visit)
        except Exception as exc:  # a request boundary: count it, keep serving
            out["errors"].append(repr(exc))
            out["ingest"].append(math.inf)
            return
        if isinstance(result, IngestShed):
            out["refused"].append(visit)
            out["ingest"].append(math.inf)
        else:
            out["ingest"].append(time.perf_counter() - due)

    async def lookup(user, due):
        route["lookup"] = True
        try:
            await service.lookup(user)
        except Exception as exc:  # a request boundary: count it, keep serving
            out["errors"].append(repr(exc))
            out["lookup"].append(math.inf)
            return
        finally:
            route["lookup"] = False
        out["lookup"].append(time.perf_counter() - due)

    tasks = []
    start = time.perf_counter()
    for offset, kind, payload in events:
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        out["late"].append(time.perf_counter() - due)
        tasks.append(asyncio.create_task(
            ingest(payload, due) if kind == 0 else lookup(payload, due)))
    await asyncio.gather(*tasks)
    return out


async def closed_loop(service, pending) -> dict:
    """CLIENTS clients, each sending its next visit when the previous one
    is answered; a refused visit is sent again after a short back-off."""
    queue = deque((visit, 1) for visit in pending)
    out = {"accepted": 0, "refused": 0, "errors": [],
           "marks": [time.perf_counter()]}

    async def client():
        while queue:
            visit, sends = queue.popleft()
            try:
                result = await service.ingest(visit)
            except Exception as exc:  # a request boundary: count it, go on
                out["errors"].append(repr(exc))
                continue
            if isinstance(result, IngestShed):
                out["refused"] += 1
                if sends < MAX_SENDS:
                    queue.append((visit, sends + 1))
                await asyncio.sleep(RESEND_BACKOFF_S)
            else:
                out["accepted"] += 1
                if out["accepted"] % WINDOW == 0:
                    out["marks"].append(time.perf_counter())

    await asyncio.gather(*(client() for _ in range(CLIENTS)))
    out["wall_s"] = time.perf_counter() - out["marks"][0]
    marks = out["marks"]
    out["rates"] = [WINDOW / (b - a) for a, b in zip(marks, marks[1:])] \
        or [out["accepted"] / out["wall_s"]]
    return out


def replay(directory, vectors, live_bytes, rec, route) -> dict:
    """Delete the snapshot, then cold-recover the whole WAL REPLAYS times."""
    os.unlink(os.path.join(directory, SNAPSHOT_NAME))
    walls, replayed, identical = [], 0, True
    route["phase"] = "replay"
    try:
        for _ in range(REPLAYS):
            gc.collect()
            service = FingerprintService(directory, vectors, recorder=rec)
            with rec.span("recover"):
                start = time.perf_counter()
                info = service.recover()
                walls.append(time.perf_counter() - start)
            replayed = info["replayed"]
            identical = (identical and service.state_bytes() == live_bytes
                         and not info["wal_problems"]
                         and not info["wal_torn_tail"])
    finally:
        route["phase"] = "live"
    return {"walls": walls, "replayed": replayed, "identical": identical}


def serve(w, seed, visits, directory, seconds, rec, route) -> dict:
    """Phases A (open loop), B (closed loop over the rest of the stream,
    plus A's refused visits) and C (replay), on one service directory."""
    n_ingest = min(int(INGEST_RATE * seconds * OPEN_LOOP_SHARE),
                   len(visits) // 2)
    lookups = lookup_schedule(visits, seed, n_ingest)

    async def live():
        service = FingerprintService(directory, w.vectors,
                                     config=SERVICE_CONFIG, recorder=rec)
        await service.start()
        with rec.span("open_loop"):
            a = await open_loop(service, visits, lookups, n_ingest, route)
        with rec.span("closed_loop"):
            b = await closed_loop(service, a["refused"] + visits[n_ingest:])
        await service.stop()
        return service, a, b

    gc.collect()
    service, a, b = asyncio.run(live())
    live_bytes = service.state_bytes()
    with rec.span("replay"):
        c = replay(directory, w.vectors, live_bytes, rec, route)
    return {"service": service, "a": a, "b": b, "c": c,
            "live_bytes": live_bytes}


def stream_dataset(dataset, visits) -> StudyDataset:
    """The stream as the service saw it (bots' constant eFPs included),
    in the batch collator's input shape."""
    series = {v: {} for v in dataset.vectors}
    for visit in visits:  # each user's visits arrive in iteration order
        for vector, efp in visit.efps.items():
            series[vector].setdefault(visit.user, []).append(efp)
    return StudyDataset(seed=dataset.seed, user_count=dataset.user_count,
                        iterations=dataset.iterations,
                        vectors=dataset.vectors, users=dataset.users,
                        series=series)


def service_checks(w, dataset, visits, run) -> dict:
    service = run["service"]
    stream = stream_dataset(dataset, visits)
    return {
        "stream_complete": service.state.applied == len(visits),
        "replay_equals_live": run["c"]["identical"]
        and run["c"]["replayed"] == len(visits),
        "incremental_equals_batch": all(
            service.state.collators[v].user_component_ids()
            == collate_vector(stream, v).user_component_ids()
            for v in w.vectors),
    }


def service_counts(run) -> tuple[int, int, list]:
    """(attempted, failed, errors) over every request sent; refused and
    errored requests count as failed."""
    a, b = run["a"], run["b"]
    attempted = (len(a["ingest"]) + len(a["lookup"]) + b["accepted"]
                 + b["refused"] + len(b["errors"]))
    failed = (len(a["refused"]) + len(a["errors"]) + b["refused"]
              + len(b["errors"]))
    return attempted, failed, a["errors"] + b["errors"]


def service_layers(rec, run) -> dict:
    a, b, c = run["a"], run["b"], run["c"]
    service = run["service"]
    hists = rec.histograms

    def total(name):
        return hists[name].total if name in hists else 0.0

    def count(name):
        return hists[name].count if name in hists else 0

    writes = count("service.snapshot.write_s")
    return {
        "service.ingest_p50_ms": percentile(a["ingest"], 0.5) * 1e3,
        "service.ingest_p99_ms": percentile(a["ingest"], 0.99) * 1e3,
        "service.ingest_samples": len(a["ingest"]),
        "service.lookup_p50_ms": percentile(a["lookup"], 0.5) * 1e3,
        "service.lookup_p99_ms": percentile(a["lookup"], 0.99) * 1e3,
        "service.lookup_samples": len(a["lookup"]),
        "service.loadgen.late_p99_ms": percentile(a["late"], 0.99) * 1e3,
        "service.ingest_visits_per_s": statistics.median(b["rates"]),
        "service.replay_visits_per_s":
            c["replayed"] / statistics.median(c["walls"]),
        "service.wal.append_s": total("service.wal.append_s"),
        "service.wal.appends": count("service.wal.append_s"),
        "service.wal.sync_s": total("service.wal.sync_s"),
        "service.wal.syncs": count("service.wal.sync_s"),
        "service.snapshot.write_s": total("service.snapshot.write_s"),
        "service.snapshot.writes": writes,
        "service.snapshot.bytes_mean": (total("service.snapshot.bytes")
                                        / writes if writes else 0.0),
        "service.snapshot.view_s": total("service.snapshot.view_s"),
        "service.state.apply_s": total("service.state.apply_s"),
        "service.state.lookup_s": total("service.state.lookup_s"),
        "service.replay.read_wal_s":
            total("service.replay.read_wal_s") / REPLAYS,
        "service.replay.apply_s": total("service.replay.apply_s") / REPLAYS,
        "service.sheds.queue_full": service.counts["shed_queue_full"],
        "service.sheds.deadline": service.counts["shed_deadline"],
        "service.lookups_degraded": service.counts["lookups_degraded"],
    }


def _install_service_shims(shims, rec, route) -> None:
    """Per-call service timings go to histograms, not spans. ``route``
    says whether a call belongs to live ingest or replay, and whether a
    state lookup answers a client or rebuilds the snapshot view."""
    def live_or_replay(live, replayed):
        return lambda: replayed if route["phase"] == "replay" else live

    view = live_or_replay("service.snapshot.view_s", "service.replay.view_s")

    def snapshot_bytes(original):
        def write(store, *args, **kwargs):
            written = original(store, *args, **kwargs)
            if written:
                rec.observe("service.snapshot.bytes",
                            os.path.getsize(store.path))
            return written
        return write

    nested: list = []
    shims.patch(WriteAheadLog, "append",
                _timed(rec, "service.wal.append_s", nested))
    shims.patch(WriteAheadLog, "sync",
                _timed(rec, "service.wal.sync_s", nested))
    shims.patch(SnapshotStore, "write", snapshot_bytes)
    shims.patch(SnapshotStore, "write",
                _timed(rec, "service.snapshot.write_s", nested))
    shims.patch(ServiceState, "apply", _timed(rec, live_or_replay(
        "service.state.apply_s", "service.replay.apply_s"), nested))
    shims.patch(ServiceState, "lookup", _timed(rec, lambda: (
        "service.state.lookup_s" if route["lookup"] else view()), nested))
    shims.patch(engine_module, "read_wal", _timed(rec, live_or_replay(
        "service.start.read_wal_s", "service.replay.read_wal_s"), nested))


def run_service_workload(w, seed, state, seconds, trace, pinned):
    # ``pinned`` needs no work here: the state digest comes from the live
    # state bytes the replay check keeps anyway
    dataset, visits = state
    route = {"phase": "live", "lookup": False}
    with tempfile.TemporaryDirectory(prefix=f"{w.name}-", dir=OUT) as scratch:
        run = serve(w, seed, visits, os.path.join(scratch, "untraced"),
                    seconds, NULL_RECORDER, route)
        a, b = run["a"], run["b"]
        attempted, failed, errors = service_counts(run)
        requests = a["ingest"] + a["lookup"]
        result = {
            "pool": {},
            "attempted": attempted, "failed": failed, "errors": errors,
            "metrics": {
                "items_per_s": (statistics.median(b["rates"]),
                                len(b["rates"])),
                "latency_p50_ms": (percentile(requests, 0.5) * 1e3,
                                   len(requests)),
            },
            "digests": lambda: {"state_sha256": hashlib.sha256(
                run["live_bytes"]).hexdigest()},
            "repetitions_s": [WINDOW / rate for rate in b["rates"]],
            "service_counts": dict(run["service"].counts),
        }
        if trace:
            rec = Recorder()
            with Shims() as shims, \
                    rec.span("workload", workload=w.name, seed=seed):
                _install_service_shims(shims, rec, route)
                traced = serve(w, seed, visits,
                               os.path.join(scratch, "traced"), seconds, rec,
                               route)
            layers = service_layers(rec, traced)
            layers["trace.overhead"] = (
                (traced["b"]["wall_s"] + sum(traced["c"]["walls"]))
                / (b["wall_s"] + sum(run["c"]["walls"])))
            result["trace"] = (rec, layers)
    result["checks"] = service_checks(w, dataset, visits, run)
    if trace:
        result["checks"]["traced_equals_untraced"] = \
            traced["live_bytes"] == run["live_bytes"]
    return result


# -- one workload, end to end -------------------------------------------------

def setup_probe(name: str, seed: int, smoke: bool) -> float:
    """One more set-up, in a fresh interpreter: work moved into lazy
    process-level state cannot hide behind a warm process."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(seed), "--setup-probe"] + (["--smoke"] if smoke
                                                    else [])
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True,
                          timeout=170)
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def setup(w: Workload, seed: int):
    """Everything before the first timed operation, which ``setup_s``
    times: the fsync probe (a hardware note) and the workload's own set-up.
    Returns ``(fsync, state)``."""
    with tempfile.TemporaryDirectory(prefix=f"{w.name}-", dir=OUT) as scratch:
        fsync = fsync_probe(scratch)
    return fsync, service_setup(w, seed) if w.service else study_setup(w, seed)


def run(name: str, seed: int | None = None, seconds: float = 40.0,
        trace: bool = False, smoke: bool = False,
        t0: float | None = None) -> dict:
    """Set up, measure and check one workload; returns the result document
    (the trace recorder, when traced, rides under the ``_recorder`` key)."""
    w = workload(name, smoke)
    seed = w.seed if seed is None else seed
    t0 = time.perf_counter() if t0 is None else t0
    os.makedirs(OUT, exist_ok=True)
    fsync, state = setup(w, seed)
    setup_s = time.perf_counter() - t0
    pin = load_pin(name, seed, smoke)
    runner = run_service_workload if w.service else run_study_workload
    result = runner(w, seed, state, seconds, trace, pin is not None)
    digests = None
    if pin is not None:
        digests = result["digests"]()
        result["checks"]["pinned_sha256"] = digests == pin
    reap_pool_workers()
    rss = peak_rss_mb()  # before the probes, whose processes are children too
    setups = [setup_s] + [setup_probe(name, seed, smoke)
                          for _ in range(SETUPS - 1)]
    samples = {metric: n for metric, (_, n) in result["metrics"].items()}
    values = {metric: v for metric, (v, _) in result["metrics"].items()}
    values["peak_rss_mb"], samples["peak_rss_mb"] = sum(rss), 1
    values["setup_s"], samples["setup_s"] = statistics.median(setups), SETUPS
    doc = {
        "benchmark": "bench_pipeline", "format": 1,
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "smoke": smoke,
        "hardware": hardware(result["pool"], fsync),
        "correct": all(result["checks"].values()),
        "checks": result["checks"], "digests": digests,
        "attempted": result["attempted"], "failed": result["failed"],
        "failed_fraction": result["failed"] / result["attempted"],
        "errors": result["errors"][:10],
        "setup_runs_s": setups,
        "peak_rss_self_child_mb": rss,
        "repetitions_s": result["repetitions_s"],
        "metrics": {metric: {"value": values[metric],
                             "unit": END_TO_END[metric],
                             "samples": samples[metric]}
                    for metric in END_TO_END},
    }
    if w.service:
        doc["service_counts"] = result["service_counts"]
    else:
        doc["repetitions_probe_s"] = result["probe_s"]
        doc["nominal_probe_s"] = NOMINAL_PROBE_S
    if trace:
        rec, layers = result["trace"]
        unlisted = set(layers) - set(PER_LAYER)
        if unlisted:
            raise ValueError(f"per-layer metrics missing from PER_LAYER: "
                             f"{sorted(unlisted)}")
        doc["layers"] = {metric: {"value": layers.get(metric, 0.0),
                                  "unit": unit}
                         for metric, unit in PER_LAYER.items()}
        doc["_recorder"] = rec
    return doc


def contract_line(doc: dict) -> str:
    """The last stdout line: end-to-end metrics untraced, per-layer traced."""
    metrics = doc["layers"] if doc["trace"] else doc["metrics"]
    return json.dumps({
        "correct": doc["correct"], "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()}})


def write_outputs(doc: dict, out: str) -> str | None:
    """Write the result file, and the trace file next to it when traced;
    returns the self-time table text (traced runs only)."""
    rec = doc.pop("_recorder", None)
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    if rec is None:
        return None
    table = self_times(rec.spans)
    trace_path = out[:-5] + ".trace.json" if out.endswith(".json") \
        else out + ".trace.json"
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": doc["workload"], "seed": doc["seed"],
                   "overhead": doc["layers"]["trace.overhead"]["value"],
                   "self_time": table, "spans": rec.spans,
                   "counters": rec.counters,
                   "histograms": {k: h.to_dict()
                                  for k, h in rec.histograms.items()},
                   "node_profile": rec.node_profile}, fh, sort_keys=True)
        fh.write("\n")
    return format_trace_table(table, rec.histograms)


def print_human(doc: dict, table: str | None) -> None:
    print(f"workload {doc['workload']}  seed {doc['seed']}  "
          f"seconds {doc['seconds']}  trace {doc['trace']}")
    for name, m in doc["metrics"].items():
        print(f"  {name:<16}{m['value']:>16.6g} {m['unit']:<4} "
              f"(n={m['samples']})")
    if "repetitions_probe_s" in doc:
        probe = statistics.median(doc["repetitions_probe_s"])
        print(f"  timings restated at the nominal host speed: probe loop "
              f"{probe * 1e3:.3f} ms measured, {NOMINAL_PROBE_S * 1e3:.3f} "
              f"ms nominal")
    print(f"  failed {doc['failed']} of {doc['attempted']} operations "
          f"(failed_fraction {doc['failed_fraction']:.6g})")
    for check, ok in doc["checks"].items():
        print(f"  check {check:<26}{'ok' if ok else 'FAILED'}")
    if table is not None:
        print("  per-layer self time (traced repetitions):")
        print(table)
        for name, m in doc["layers"].items():
            print(f"  {name:<36}{m['value']:>16.6g} {m['unit']}")


def run_all(args) -> int:
    """Every workload in its own child process, so set-up, peak RSS and
    warm caches never leak between workloads."""
    summary = {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
        lines = proc.stdout.strip().splitlines()
        summary[name] = (json.loads(lines[-1])
                         if lines and lines[-1].startswith("{")
                         else {"correct": False})
        summary[name]["exit_code"] = proc.returncode
    correct = all(s["correct"] and s["exit_code"] == 0
                  for s in summary.values())
    print(json.dumps({"correct": correct, "workloads": summary}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all four, each in "
                             "a child process)")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: 2021; 528 for "
                             "render-uncached)")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: also run traced and report per-layer "
                             "metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the self-tests")
    parser.add_argument("--out", default=None,
                        help="result file (default: out/<workload>-s<seed>-"
                             "t<trace>.json beside this script)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    seed = WORKLOADS[args.workload].seed if args.seed is None else args.seed
    if args.setup_probe:
        os.makedirs(OUT, exist_ok=True)
        setup(workload(args.workload, args.smoke), seed)
        setup_s = time.perf_counter() - _T0
        reap_pool_workers()
        print(json.dumps({"setup_s": setup_s}))
        return 0
    doc = run(args.workload, seed, args.seconds, bool(args.trace), args.smoke,
              t0=_T0)
    out = args.out or os.path.join(
        OUT, f"{args.workload}-s{seed}-t{args.trace}.json")
    table = write_outputs(doc, out)
    print_human(doc, table)
    print(contract_line(doc))
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
