#!/usr/bin/env python
"""Shard-scale benchmark: external memory really is external.

Every measured run happens in a child process (fresh interpreter) so
``ru_maxrss`` is the run's own peak RSS, not the parent's high-water
mark. Three stages:

  identity    the same study (2093 users) rendered monolithically and
              sharded; the merged shard analysis must be byte-identical
              (sha256) to the monolithic analysis report, and the
              sharded path's sustained grid items/s must stay within
              tolerance of the monolithic run's.
  scaling     sharded runs at increasing user counts (default 25k and
              100k) with a fixed shard size; peak RSS must grow
              sub-linearly in user count (the gate: RSS growth at most
              half the user-count growth), because completed shards
              stream to disk instead of accumulating.
  contrast    a monolithic run at the largest scale; the sharded run's
              peak RSS must not exceed it (the monolithic run holds
              every user's series in memory at once — that is exactly
              the cost sharding removes).

``--smoke-1m`` appends an opt-in million-user sharded run (1 iteration,
one vector, so it finishes in about a minute) and gates its peak RSS
against the 100k run's: a 10x population for at most 2x the memory.

Acceptance gates are asserted, so regressions fail loudly. Throughput
counts grid items (users x iterations x vectors), most of them served
from the render cache, not engine renders.

Usage: PYTHONPATH=src python benchmarks/bench_shard_scale.py
         [--scales N N ...] [--identity-users N] [--smoke-1m]
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

IDENTITY_VECTORS = ("dc", "fft", "hybrid")
IDENTITY_ITERATIONS = 5
SCALE_VECTORS = ("dc", "fft")
SCALE_ITERATIONS = 3
SCALE_SHARD_SIZE = 4096
SMOKE_1M_USERS = 1_000_000

#: gate thresholds (asserted below, recorded in the committed document)
MAX_RSS_GROWTH_PER_USER_GROWTH = 0.5
MIN_THROUGHPUT_VS_MONOLITHIC = 0.4
MAX_SMOKE_1M_RSS_VS_100K = 2.0


# ---------------------------------------------------------------------------
# child process: one measured run, peak RSS reported from the inside

def _child(args: argparse.Namespace) -> int:
    import resource

    from repro import run_study
    from repro.analysis import build_analysis_report, dumps_analysis_report
    from repro.population import run_study_sharded

    vectors = tuple(args.vectors.split(","))
    start = time.perf_counter()
    if args.child == "sharded":
        result = run_study_sharded(args.users, args.shard_size, args.out_dir,
                                   iterations=args.iterations,
                                   vectors=vectors, seed=args.seed, workers=0)
        with open(result.merged_report_path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        shards = len(result.shards)
    else:  # mono
        dataset = run_study(args.users, iterations=args.iterations,
                            vectors=vectors, seed=args.seed, workers=0)
        text = dumps_analysis_report(build_analysis_report(dataset))
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        shards = 0
    wall = time.perf_counter() - start

    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    grid_items = args.users * args.iterations * len(vectors)
    print(json.dumps({
        "mode": args.child, "users": args.users, "shards": shards,
        "iterations": args.iterations, "vectors": list(vectors),
        "wall_s": round(wall, 4), "ru_maxrss_kb": rss_kb,
        "grid_items": grid_items,
        "grid_items_per_s": round(grid_items / wall, 2) if wall > 0 else None,
        "analysis_sha256": digest,
    }))
    return 0


def _measure(mode: str, users: int, *, shard_size: int | None, iterations: int,
             vectors: tuple[str, ...], seed: int, out_dir: str) -> dict:
    argv = [sys.executable, os.path.abspath(__file__), "--child", mode,
            "--users", str(users), "--iterations", str(iterations),
            "--vectors", ",".join(vectors), "--seed", str(seed),
            "--out-dir", out_dir]
    if shard_size is not None:
        argv += ["--shard-size", str(shard_size)]
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(argv, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} child at {users} users failed:\n"
                           f"{proc.stderr}")
    return json.loads(proc.stdout)


# ---------------------------------------------------------------------------
# parent: stage the children, assert the gates, commit the document

def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--child", choices=("sharded", "mono"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--users", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--shard-size", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--iterations", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--vectors", help=argparse.SUPPRESS)
    parser.add_argument("--out-dir", help=argparse.SUPPRESS)
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--scales", type=int, nargs="+",
                        default=[25_000, 100_000],
                        help="sharded user counts for the RSS scaling series "
                             "(ascending; default 25000 100000)")
    parser.add_argument("--identity-users", type=int, default=2093,
                        help="user count for the monolithic-vs-sharded "
                             "bit-identity stage (default 2093)")
    parser.add_argument("--shard-size-scale", type=int,
                        default=SCALE_SHARD_SIZE)
    parser.add_argument("--smoke-1m", action="store_true",
                        help="append the opt-in million-user smoke run")
    parser.add_argument("--out", default=os.path.join(_HERE,
                                                      "BENCH_shard_scale.json"))
    args = parser.parse_args()
    if args.child:
        return _child(args)

    from repro.io import atomic_write_json
    from repro.webaudio import ENGINE_VERSION

    scales = sorted(args.scales)
    if len(scales) < 2:
        parser.error("--scales needs at least two ascending user counts")

    with tempfile.TemporaryDirectory(prefix="bench_shard_scale.") as tmp:
        # -- stage 1: bit-identity + throughput vs the fused monolithic path
        ident = dict(iterations=IDENTITY_ITERATIONS, vectors=IDENTITY_VECTORS,
                     seed=args.seed)
        shard_size = max(1, args.identity_users // 4)
        mono = _measure("mono", args.identity_users, shard_size=None,
                        out_dir=tmp, **ident)
        sharded = _measure("sharded", args.identity_users,
                           shard_size=shard_size,
                           out_dir=os.path.join(tmp, "identity"), **ident)
        bit_identical = mono["analysis_sha256"] == sharded["analysis_sha256"]
        assert bit_identical, (
            f"sharded merge diverged from the monolithic analysis at "
            f"{args.identity_users} users: {sharded['analysis_sha256']} != "
            f"{mono['analysis_sha256']}")
        throughput_ratio = round(
            sharded["grid_items_per_s"] / mono["grid_items_per_s"], 4)
        assert throughput_ratio >= MIN_THROUGHPUT_VS_MONOLITHIC, (
            f"sharded sustained throughput ({sharded['grid_items_per_s']} "
            f"grid items/s) fell below {MIN_THROUGHPUT_VS_MONOLITHIC:.0%} of "
            f"the monolithic run's ({mono['grid_items_per_s']} grid items/s)")
        print(f"identity ok: {args.identity_users} users, sharded == "
              f"monolithic analysis ({mono['analysis_sha256'][:12]}…), "
              f"throughput ratio {throughput_ratio}")

        # -- stage 2: peak RSS vs user count, fixed shard size
        scale_runs = []
        for users in scales:
            run = _measure("sharded", users,
                           shard_size=args.shard_size_scale,
                           iterations=SCALE_ITERATIONS,
                           vectors=SCALE_VECTORS, seed=args.seed,
                           out_dir=os.path.join(tmp, f"scale_{users}"))
            scale_runs.append(run)
            print(f"scale {users}: rss {run['ru_maxrss_kb'] / 1024:.1f} MB, "
                  f"{run['grid_items_per_s']} grid items/s, "
                  f"{run['shards']} shards")
        lo, hi = scale_runs[0], scale_runs[-1]
        user_growth = hi["users"] / lo["users"]
        rss_growth = round(hi["ru_maxrss_kb"] / lo["ru_maxrss_kb"], 4)
        rss_per_user_growth = round(rss_growth / user_growth, 4)
        assert rss_growth <= MAX_RSS_GROWTH_PER_USER_GROWTH * user_growth, (
            f"peak RSS grew {rss_growth}x over a {user_growth}x user-count "
            f"increase — the sharded path is accumulating per-user state "
            f"instead of streaming it to disk")

        # -- stage 3: contrast with the in-memory monolithic path at scale
        mono_scale = _measure("mono", hi["users"], shard_size=None,
                              iterations=SCALE_ITERATIONS,
                              vectors=SCALE_VECTORS, seed=args.seed,
                              out_dir=tmp)
        rss_vs_mono = round(
            hi["ru_maxrss_kb"] / mono_scale["ru_maxrss_kb"], 4)
        assert hi["ru_maxrss_kb"] <= mono_scale["ru_maxrss_kb"], (
            f"sharded peak RSS ({hi['ru_maxrss_kb']} KB) exceeded the "
            f"monolithic run's ({mono_scale['ru_maxrss_kb']} KB) at "
            f"{hi['users']} users — streaming bought nothing")
        print(f"contrast: sharded rss is {rss_vs_mono}x monolithic at "
              f"{hi['users']} users")

        # -- optional stage 4: the million-user smoke
        smoke_1m = None
        if args.smoke_1m:
            smoke = _measure("sharded", SMOKE_1M_USERS,
                             shard_size=2 * args.shard_size_scale,
                             iterations=1, vectors=("dc",), seed=args.seed,
                             out_dir=os.path.join(tmp, "smoke_1m"))
            ratio_vs_100k = round(
                smoke["ru_maxrss_kb"] / hi["ru_maxrss_kb"], 4)
            assert ratio_vs_100k <= MAX_SMOKE_1M_RSS_VS_100K, (
                f"1M-user peak RSS is {ratio_vs_100k}x the {hi['users']}-user "
                f"run's — RSS is not flat in population size")
            smoke_1m = {**smoke, "rss_vs_largest_scale": ratio_vs_100k}
            print(f"1M smoke: rss {smoke['ru_maxrss_kb'] / 1024:.1f} MB "
                  f"({ratio_vs_100k}x the {hi['users']}-user run), "
                  f"{smoke['grid_items_per_s']} grid items/s, "
                  f"{smoke['shards']} shards")

    result = {
        "benchmark": "bench_shard_scale",
        "engine_version": ENGINE_VERSION,
        "python": platform.python_version(),
        "identity": {
            "users": args.identity_users,
            "iterations": IDENTITY_ITERATIONS,
            "vectors": list(IDENTITY_VECTORS),
            "bit_identical": bit_identical,
            "analysis_sha256": mono["analysis_sha256"],
            "monolithic": mono,
            "sharded": sharded,
        },
        "scaling": {
            "shard_size": args.shard_size_scale,
            "iterations": SCALE_ITERATIONS,
            "vectors": list(SCALE_VECTORS),
            "runs": scale_runs,
            "monolithic_at_largest": mono_scale,
        },
        "smoke_1m": smoke_1m,
        "gates": {
            "bit_identical": bit_identical,
            "grid_items_per_s": hi["grid_items_per_s"],
            "sharded_vs_monolithic_throughput": throughput_ratio,
            "user_growth": round(user_growth, 4),
            "rss_growth": rss_growth,
            "rss_growth_per_user_growth": rss_per_user_growth,
            "rss_vs_monolithic": rss_vs_mono,
        },
    }
    atomic_write_json(args.out, result, indent=2)
    print(json.dumps(result["gates"], indent=2))
    print(f"OK: merged analysis bit-identical at {args.identity_users} "
          f"users; peak RSS grew {rss_growth}x over {user_growth:.0f}x more "
          f"users ({rss_vs_mono}x the monolithic footprint at "
          f"{hi['users']} users)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
