#!/usr/bin/env python
"""Resilience benchmark: what fault tolerance costs, and that it works.

Two runs on the same workload:

  clean       supervised pooled render, no faults — the production path.
  chaos       a seed-deterministic ``FaultPlan`` injects worker crashes
              (real ``os._exit`` in pool workers), corrupted returns, and
              render delays across a fraction of the class keys; the
              supervisor must recover all of them.

Resuming a killed run is the sharded driver's job, pinned under a real
SIGKILL by ``tests/test_sharding.py`` and CI's ``sharded`` job.

Acceptance gates (asserted, so regressions fail loudly):

  * the chaos run's dataset is byte-identical to the clean run's;
  * the chaos run really was attacked (crashes + corrupt returns fired)
    and recovered everything (zero quarantined classes);
  * supervision bookkeeping on the clean run stays cheap relative to the
    render work itself (attempts == jobs, no retries).

Usage: PYTHONPATH=src python benchmarks/bench_resilience.py [--users N]
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro import RenderCache, Recorder, run_study  # noqa: E402
from repro.io import atomic_write_json  # noqa: E402
from repro.resilience import Fault, FaultPlan, RetryPolicy  # noqa: E402
from repro.resilience.faults import ENV_VAR  # noqa: E402
from repro.webaudio import ENGINE_VERSION  # noqa: E402

VECTORS = ("dc", "fft", "hybrid")

#: fractions of class keys each chaos fault hits (seed-deterministic)
CRASH_FRACTION = 0.12
CORRUPT_FRACTION = 0.12
DELAY_FRACTION = 0.25

POLICY = RetryPolicy(base_delay_s=0.01, max_delay_s=0.1, job_deadline_s=60.0)


def _timed_study(tag, out_dir, **kwargs):
    recorder = Recorder()
    start = time.perf_counter()
    dataset = run_study(recorder=recorder, cache=RenderCache(), **kwargs)
    elapsed = time.perf_counter() - start
    path = os.path.join(out_dir, f"{tag}.json")
    dataset.save(path)
    with open(path, "rb") as fh:
        digest_bytes = fh.read()
    return {"tag": tag, "seconds": elapsed, "bytes": digest_bytes,
            "counters": dict(recorder.counters)}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--users", type=int, default=40)
    parser.add_argument("--iterations", type=int, default=10)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--seed", type=int, default=2022)
    args = parser.parse_args()

    study = dict(user_count=args.users, iterations=args.iterations,
                 vectors=VECTORS, seed=args.seed, workers=args.workers,
                 retry_policy=POLICY)

    with tempfile.TemporaryDirectory(prefix="bench_resilience.") as tmp:
        os.environ.pop(ENV_VAR, None)
        clean = _timed_study("clean", tmp, **study)

        plan = FaultPlan(seed=args.seed, faults=(
            Fault(kind="crash", fraction=CRASH_FRACTION, times=1),
            Fault(kind="corrupt", fraction=CORRUPT_FRACTION, times=1),
            Fault(kind="delay", fraction=DELAY_FRACTION, times=1,
                  seconds=0.02),
        ))
        os.environ[ENV_VAR] = plan.save(os.path.join(tmp, "plan.json"))
        try:
            chaos = _timed_study("chaos", tmp, **study)
        finally:
            os.environ.pop(ENV_VAR, None)

    runs = [clean, chaos]
    assert chaos["bytes"] == clean["bytes"], \
        "chaos dataset diverged from the clean run"

    cc = chaos["counters"]
    injected = cc.get("retry.crashes", 0) + cc.get("retry.corrupt_returns", 0)
    assert injected >= 1, "chaos plan injected no faults — nothing measured"
    assert cc.get("retry.quarantined", 0) == 0, \
        "chaos run quarantined classes instead of recovering them"
    assert clean["counters"].get("retry.retries", 0) == 0
    assert clean["counters"]["retry.attempts"] == \
        clean["counters"]["pool.jobs"]

    def _summary(run):
        c = run["counters"]
        return {
            "seconds": round(run["seconds"], 4),
            "overhead_vs_clean": round(run["seconds"] / clean["seconds"], 4)
            if clean["seconds"] > 0 else None,
            "attempts": c.get("retry.attempts", 0),
            "retries": c.get("retry.retries", 0),
            "crashes": c.get("retry.crashes", 0),
            "timeouts": c.get("retry.timeouts", 0),
            "corrupt_returns": c.get("retry.corrupt_returns", 0),
            "pool_rebuilds": c.get("degraded.pool_rebuilds", 0),
        }

    result = {
        "benchmark": "resilience",
        "engine_version": ENGINE_VERSION,
        "python": platform.python_version(),
        "workload": {"users": args.users, "iterations": args.iterations,
                     "vectors": list(VECTORS), "seed": args.seed,
                     "workers": args.workers},
        "fault_plan": {"crash_fraction": CRASH_FRACTION,
                       "corrupt_fraction": CORRUPT_FRACTION,
                       "delay_fraction": DELAY_FRACTION,
                       "delay_seconds": 0.02},
        "runs": {run["tag"]: _summary(run) for run in runs},
        "identical_datasets": True,
    }
    atomic_write_json(os.path.join(_HERE, "BENCH_resilience.json"), result,
                      indent=2)
    print(json.dumps(result["runs"], indent=2))
    print("OK: both datasets byte-identical; chaos recovered "
          f"{injected} injected fault(s) with "
          f"{cc.get('degraded.pool_rebuilds', 0)} pool rebuild(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
