#!/usr/bin/env python3
"""Compare two sides of bench_pipeline result files, metric by metric.

  python3 benchmarks/pipeline/compare.py BASE CHANGE [--benchmark PATH]

BASE and CHANGE are each a result file or a directory of them (the
``--out`` files of untraced runs): the parent commit and the change, or
two sets of runs of one commit. For every workload and end-to-end metric
of BENCHMARK.json it prints each side's median and quartiles, the share
of pairs the change won, and a verdict:

  improved    the change won at least 9 of 10 pairs (ties count for
              neither side, at least 10 pairs) and the medians differ by
              more than the base's own quartile spread
  no worse    the change's median is worse than the base's by at most
              the metric's bound, and the base's spread is within the
              bound (or every change run beats every base run)
  unresolved  the base's spread is wider than the bound, so "no worse"
              cannot be told apart from noise
  worse       the change's median is worse by more than the bound

Runs pair up by seed where both sides ran the same seeds, else in seed
order. The exit code is 0 when no verdict is ``worse`` or
``unresolved``.
"""
from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                                 "BENCHMARK.json")


def load_side(path: str) -> dict:
    """workload -> [result docs] of untraced runs, in seed order."""
    files = (sorted(glob.glob(os.path.join(path, "*.json")))
             if os.path.isdir(path) else [path])
    runs: dict[str, list] = {}
    for name in files:
        if name.endswith(".trace.json"):
            continue
        with open(name, encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc.get("benchmark") == "bench_pipeline" and not doc["trace"]:
            runs.setdefault(doc["workload"], []).append(doc)
    for docs in runs.values():
        docs.sort(key=lambda d: d["seed"])
    return runs


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pairs(base_docs, change_docs) -> list[tuple[dict, dict]]:
    base_seeds = [d["seed"] for d in base_docs]
    change_by_seed = {d["seed"]: d for d in change_docs}
    if sorted(base_seeds) == sorted(change_by_seed):
        return [(d, change_by_seed[d["seed"]]) for d in base_docs]
    return list(zip(base_docs, change_docs))


def verdict(base, change, won, matched, higher: bool, bound: float,
            more_failures: bool) -> str:
    """The choosing-metrics rule: a gain needs >= 9/10 of >= 10 pairs, a
    median gap wider than the base's quartile spread and no more failed
    operations than the base; "no worse" needs the median within the
    bound and a base spread within the bound."""
    q1, base_med, q3 = quartiles(base)
    change_med = statistics.median(change)
    gain = (change_med - base_med) if higher else (base_med - change_med)
    if matched >= 10 and won >= 0.9 * matched and gain > q3 - q1 \
            and not more_failures:
        return "improved"
    if -gain > bound * abs(base_med):
        return "worse"
    every_better = (min(change) > max(base) if higher
                    else max(change) < min(base))
    if (q3 - q1) > bound * abs(base_med) and not every_better:
        return "unresolved"
    return "no worse"


def compare(base_runs: dict, change_runs: dict, benchmark: dict) -> list:
    rows = []
    for workload in [w["name"] for w in benchmark["workloads"]]:
        base_docs = base_runs.get(workload, [])
        change_docs = change_runs.get(workload, [])
        if not base_docs or not change_docs:
            rows.append({"workload": workload, "metric": "-",
                         "verdict": "missing"})
            continue
        matched = pairs(base_docs, change_docs)
        failed = (sum(d["failed"] for d in base_docs),
                  sum(d["failed"] for d in change_docs))
        for metric in benchmark["end_to_end"]:
            name, higher = metric["name"], metric["better"] == "higher"
            base = [d["metrics"][name]["value"] for d in base_docs]
            change = [d["metrics"][name]["value"] for d in change_docs]
            won = 0
            for b, c in matched:
                b_value = b["metrics"][name]["value"]
                c_value = c["metrics"][name]["value"]
                won += (c_value > b_value) if higher else (c_value < b_value)
            rows.append({
                "workload": workload, "metric": name,
                "base": quartiles(base), "change": quartiles(change),
                "won": won, "pairs": len(matched), "failed": failed,
                "verdict": verdict(base, change, won, len(matched), higher,
                                   metric["bound"], failed[1] > failed[0]),
            })
    return rows


def render(rows) -> str:
    head = (f"{'workload':<16}{'metric':<16}{'base q1/med/q3':>34}"
            f"{'change q1/med/q3':>34}{'won':>8}{'failed':>9}  verdict")
    lines = [head]
    for row in rows:
        if row["verdict"] == "missing":
            lines.append(f"{row['workload']:<16}{'-':<16}{'':>34}{'':>34}"
                         f"{'':>8}{'':>9}  missing")
            continue
        fmt = "{:.4g}/{:.4g}/{:.4g}"
        lines.append(
            f"{row['workload']:<16}{row['metric']:<16}"
            f"{fmt.format(*row['base']):>34}{fmt.format(*row['change']):>34}"
            f"{row['won']:>4}/{row['pairs']:<3}"
            f"{row['failed'][0]:>4}/{row['failed'][1]:<4}  {row['verdict']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="result file or directory (parent)")
    parser.add_argument("change", help="result file or directory (change)")
    parser.add_argument("--benchmark", default=DEFAULT_BENCHMARK,
                        help="BENCHMARK.json with the metrics and bounds")
    args = parser.parse_args(argv)
    with open(args.benchmark, encoding="utf-8") as fh:
        benchmark = json.load(fh)
    rows = compare(load_side(args.base), load_side(args.change), benchmark)
    print(render(rows))
    bad = [r for r in rows if r["verdict"] in ("worse", "unresolved",
                                               "missing")]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
