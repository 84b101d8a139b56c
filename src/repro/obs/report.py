"""The machine-readable run report: build, validate, render, CLI.

A report is one JSON document describing where a study run spent its
time: top-level phase spans (plan/render/assemble), the full span list,
counters, per-vector latency histograms, cache statistics, the per-stack
hot-node profile, and pool utilization. ``run_study(report_path=...)``
writes one; CI schema-checks it with ``--check`` and uploads it as an
artifact; ``python -m repro.obs.report <path>`` renders it as tables.

The CLI dispatches on the document's ``kind``: run reports
(``repro.obs.report``) are handled here; analysis, tables and shard
reports (written by ``python -m repro.analysis``) are validated and
rendered by their ``repro.analysis`` modules — so one ``--check`` entry
point gates every report artefact CI produces. Every validator is a
``repro.schema`` shape plus that document's cross-field invariants, so
``--check`` exits 2 naming the field on any malformed document, never
with a traceback.
"""
from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import sys

from ..schema import (BOOL, COUNT, NON_NEGATIVE, NUMBER, OBJECT, STRING,
                      each, maybe, optional)
from ..schema import problems as schema_problems
from .recorder import Histogram

REPORT_KIND = "repro.obs.report"
REPORT_FORMAT = 1

#: every study report must carry exactly these top-level phases
STUDY_PHASES = ("plan", "render", "assemble")


def build_report(recorder, workload: dict, cache_stats: dict | None = None,
                 pool: dict | None = None,
                 resilience: dict | None = None,
                 events_path: str | None = None) -> dict:
    """Assemble the report document from a recorder plus run context.

    ``resilience`` is the supervised-execution summary produced by
    ``run_study`` (``repro.resilience.SupervisedExecutor.summary()``);
    its ``retry`` / ``degraded`` members become top-level report sections
    so dashboards and the CI schema check see recovery activity next to
    the latency data it perturbed.

    ``events_path`` names the JSONL event-log sidecar the run streamed
    its events to (see ``repro.obs.events``). The report embeds only the
    summary — count, per-kind tally, emitting pid — plus the sidecar
    path; ``--check`` re-reads the sidecar and refuses a report whose log
    lost events.
    """
    snapshot = recorder.snapshot()
    top_level = [s for s in snapshot["spans"] if s.get("parent") is None]
    top_level.sort(key=lambda s: s["start_s"])
    phases = [{"name": s["name"], "start_s": s["start_s"],
               "duration_s": s["duration_s"]} for s in top_level]
    resilience = resilience or {}
    events = None
    if snapshot.get("events"):
        kinds: dict[str, int] = {}
        for event in snapshot["events"]:
            kinds[event["kind"]] = kinds.get(event["kind"], 0) + 1
        events = {
            "path": events_path,
            "count": len(snapshot["events"]),
            "kinds": dict(sorted(kinds.items())),
            "pid": os.getpid(),
        }
    return {
        "kind": REPORT_KIND,
        "format": REPORT_FORMAT,
        "workload": dict(workload),
        "phases": phases,
        "spans": snapshot["spans"],
        "counters": snapshot["counters"],
        "histograms": snapshot["histograms"],
        "cache": dict(cache_stats) if cache_stats is not None else None,
        "node_profile": snapshot["node_profile"],
        "pool": dict(pool) if pool is not None else None,
        "retry": resilience.get("retry"),
        "degraded": resilience.get("degraded"),
        "events": events,
    }


# -- validation (the CI schema check) ----------------------------------------

_RETRY_FIELDS = ("attempts", "retries", "timeouts", "crashes",
                 "worker_errors", "corrupt_returns", "bisections")

#: the histogram bucket keys ``Histogram.to_dict`` can emit
_BUCKET_KEYS = frozenset(str(i) for i in range(Histogram.MAX_BUCKET + 1))

#: the run report's shape; ``python -m repro.obs.trace`` checks a report
#: against it too before exporting its spans
REPORT_SCHEMA = {
    "kind": REPORT_KIND,
    "format": REPORT_FORMAT,
    "workload": OBJECT,
    "phases": [{"name": STRING, "duration_s": NUMBER}],
    "spans": [{"id": COUNT, "parent": maybe(COUNT), "name": STRING,
               "start_s": NON_NEGATIVE, "duration_s": NON_NEGATIVE,
               "attrs": optional(OBJECT)}],
    "counters": each(NUMBER),
    "histograms": each({"count": COUNT, "sum": NUMBER, "min": maybe(NUMBER),
                        "max": maybe(NUMBER), "buckets": each(COUNT)}),
    "cache": maybe({"hits": NUMBER, "misses": NUMBER}),
    "node_profile": each(each({"seconds": NUMBER, "calls": COUNT})),
    "pool": maybe(OBJECT),
    "retry": maybe({**dict.fromkeys(_RETRY_FIELDS, NUMBER),
                    "quarantined": [STRING],
                    "budget": {"limit": NUMBER, "spent": NUMBER}}),
    "degraded": maybe({"pool_rebuilds": NUMBER, "inline_fallback": BOOL}),
    "events": maybe({"path": maybe(STRING), "count": COUNT,
                     "kinds": each(COUNT), "pid": COUNT}),
}

#: the resilience contract: the supervised executor writes its summary
#: both as counters and as the retry/degraded sections, and the two
#: views must agree — (section, field, counter)
_RESTATED = (
    *(("retry", field, f"retry.{field}") for field in
      ("attempts", "retries", "timeouts", "crashes", "corrupt_returns",
       "bisections")),
    ("degraded", "pool_rebuilds", "degraded.pool_rebuilds"),
)


def validate_report(payload, base_dir: str | None = None) -> list[str]:
    """Return the list of schema problems (empty == valid).

    ``base_dir`` anchors relative sidecar paths (the events JSONL named
    by the ``events`` section); the CLI passes the report's directory.
    Without it, relative sidecar paths resolve against the working
    directory.
    """
    problems = schema_problems(payload, REPORT_SCHEMA)
    if problems:
        return problems
    names = {phase["name"] for phase in payload["phases"]}
    missing = [p for p in STUDY_PHASES if p not in names]
    if missing:
        problems.append(f"phases missing {missing} (need all of {list(STUDY_PHASES)})")

    histograms = payload["histograms"]
    for name, hist in histograms.items():
        if not _BUCKET_KEYS.issuperset(hist["buckets"]):
            problems.append(f"histogram {name!r} has a bucket key outside "
                            f"0..{Histogram.MAX_BUCKET}")
        elif sum(hist["buckets"].values()) != hist["count"]:
            problems.append(f"histogram {name!r} bucket counts do not sum to count")

    counters = payload["counters"]
    for section, field, counter in _RESTATED:
        if payload[section] is not None \
                and payload[section][field] != counters.get(counter, 0):
            problems.append(f"{section}.{field} does not match counter {counter}")
    retry = payload["retry"]
    if retry is None and counters.get("retry.attempts"):
        problems.append("retry.* counters present but retry section missing")
    if retry is not None \
            and len(retry["quarantined"]) != counters.get("retry.quarantined", 0):
        problems.append("retry.quarantined length does not match "
                        "counter retry.quarantined")

    # batched-render contract: any run that counted batches must also have
    # recorded the batch-size histogram, and its observations must account
    # for every batch (the per-batch latency attribution rides on it)
    batches = counters.get("render.batches")
    if batches:
        batch_hist = histograms.get("render.batch_size")
        renders = counters.get("render.renders")
        if batch_hist is None:
            problems.append(
                "render.batches counted but render.batch_size histogram missing")
        elif batch_hist["count"] != batches:
            problems.append(
                "render.batch_size histogram count does not equal render.batches")
        if batch_hist is not None and renders is not None \
                and batch_hist["sum"] != renders:
            problems.append(
                "render.batch_size histogram sum does not equal render.renders")

    # events contract: the report's event summary and the JSONL sidecar
    # it points at must agree — a sidecar holding fewer events than the
    # report recorded means the log was truncated after the fact
    events = payload["events"]
    if events is not None:
        if sum(events["kinds"].values()) != events["count"]:
            problems.append("events.kinds tally does not sum to events.count")
        path = events["path"]
        if path is not None:
            resolved = path if os.path.isabs(path) \
                else os.path.join(base_dir or ".", path)
            # deferred import: reports without sidecars never pay it
            from .events import read_events
            try:
                sidecar, side_problems = read_events(resolved)
            except (OSError, ValueError):  # absent, a directory, a NUL byte
                sidecar, side_problems = None, []
                problems.append(f"events sidecar missing at {resolved}")
            if sidecar is not None:
                for problem in side_problems:
                    problems.append(f"events sidecar: {problem}")
                if len(sidecar) < events["count"]:
                    problems.append(
                        f"events sidecar truncated: holds "
                        f"{len(sidecar)} of {events['count']} events")
    return problems


# -- human-readable rendering -------------------------------------------------

def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(r) for r in rows)
    return "\n".join(lines)


def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:.3f}"


def render_report(payload: dict) -> str:
    """Render a report dict as human-readable tables."""
    out: list[str] = []
    workload = payload.get("workload", {})
    out.append("== run report ==")
    out.append("workload: " + ", ".join(f"{k}={v}" for k, v in workload.items()))

    phases = payload.get("phases", [])
    total = sum(p["duration_s"] for p in phases) or 1.0
    out.append("")
    out.append("phases:")
    out.append(_table(
        ["phase", "wall_ms", "share"],
        [[p["name"], _ms(p["duration_s"]), f"{100 * p['duration_s'] / total:5.1f}%"]
         for p in phases]))

    cache = payload.get("cache")
    if cache:
        out.append("")
        out.append("cache: " + ", ".join(
            f"{k}={cache[k]}" for k in
            ("hits", "misses", "hit_rate", "entries", "evictions")
            if k in cache))

    histograms = payload.get("histograms", {})
    if histograms:
        out.append("")
        out.append("latency histograms:")
        rows = []
        for name in sorted(histograms):
            hist = Histogram.from_dict(histograms[name])
            rows.append([name, str(hist.count), _ms(hist.mean),
                         _ms(hist.approx_quantile(0.5)),
                         _ms(hist.approx_quantile(0.95)),
                         _ms(hist.max or 0.0)])
        out.append(_table(["histogram", "n", "mean_ms", "p50_ms", "p95_ms",
                           "max_ms"], rows))

    counters = payload.get("counters", {})
    if counters:
        out.append("")
        out.append("counters:")
        out.append(_table(["counter", "value"],
                          [[k, f"{v:g}"] for k, v in sorted(counters.items())]))

    node_profile = payload.get("node_profile", {})
    if node_profile:
        out.append("")
        out.append("hot nodes (per profiled stack):")
        for stack in sorted(node_profile):
            nodes = node_profile[stack]
            stack_total = sum(e["seconds"] for e in nodes.values()) or 1.0
            out.append(f"  stack {stack}")
            rows = [[label, _ms(entry["seconds"]), str(entry["calls"]),
                     f"{100 * entry['seconds'] / stack_total:5.1f}%"]
                    for label, entry in
                    sorted(nodes.items(), key=lambda kv: -kv[1]["seconds"])]
            table = _table(["node", "wall_ms", "calls", "share"], rows)
            out.extend("  " + line for line in table.splitlines())

    pool = payload.get("pool")
    if pool:
        out.append("")
        out.append("pool: " + ", ".join(f"{k}={v}" for k, v in pool.items()))

    events = payload.get("events")
    if events:
        out.append("")
        out.append(f"events: {events['count']} recorded"
                   + (f" -> {events['path']}" if events.get("path") else ""))
        out.append("  " + ", ".join(f"{kind}={n}"
                                    for kind, n in events["kinds"].items()))

    retry = payload.get("retry")
    if retry:
        out.append("")
        parts = [f"{k}={retry[k]}"
                 for k in ("attempts", "retries", "timeouts", "crashes",
                           "worker_errors", "corrupt_returns", "bisections")
                 if k in retry]
        budget = retry.get("budget") or {}
        parts.append(f"budget={budget.get('spent', 0)}/{budget.get('limit', 0)}")
        out.append("retry: " + ", ".join(parts))
        if retry.get("quarantined"):
            out.append("  quarantined: " + ", ".join(retry["quarantined"]))
    degraded = payload.get("degraded")
    if degraded:
        out.append("degraded: " + ", ".join(f"{k}={v}"
                                            for k, v in degraded.items()))
    out.append("")
    return "\n".join(out)


# -- CLI ----------------------------------------------------------------------

#: kind -> (module, validator, renderer) for the documents repro.analysis
#: writes; everything else is checked as a run report
_ANALYSIS_KINDS = {
    "repro.analysis.report": ("..analysis.report", "validate_analysis_report",
                              "render_analysis_report"),
    "repro.analysis.tables": ("..analysis.tables", "validate_tables_report",
                              "render_tables_report"),
    "repro.analysis.shard_report": ("..analysis.shards",
                                    "validate_shard_report",
                                    "render_shard_report"),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Validate and pretty-print a repro report (run reports "
                    "and repro.analysis reports, dispatched on 'kind').")
    parser.add_argument("path", help="path to a report JSON file")
    parser.add_argument("--check", action="store_true",
                        help="schema-check only; print nothing on success")
    args = parser.parse_args(argv)

    try:
        with open(args.path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except FileNotFoundError:
        print(f"error: no report at {args.path}", file=sys.stderr)
        return 2
    except OSError as exc:  # a directory, no permission
        print(f"error: cannot read {args.path}: {exc.strerror}",
              file=sys.stderr)
        return 2
    except ValueError as exc:  # not JSON, not UTF-8, an oversized integer
        print(f"error: {args.path} is not valid JSON: {exc}", file=sys.stderr)
        return 2

    kind = payload.get("kind") if isinstance(payload, dict) else None
    if isinstance(kind, str) and kind in _ANALYSIS_KINDS:
        # deferred import: obs stays analysis-free unless a report needs it
        module, validate, render = _ANALYSIS_KINDS[kind]
        module = importlib.import_module(module, __package__)
        validate, render = getattr(module, validate), getattr(module, render)
    else:  # a run report, or a document no validator claims
        base_dir = os.path.dirname(os.path.abspath(args.path))
        validate = functools.partial(validate_report, base_dir=base_dir)
        render = render_report
    problems = validate(payload)
    if problems:
        print(f"error: {args.path} failed schema check:", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 2
    if not args.check:
        try:
            print(render(payload))
        except BrokenPipeError:  # e.g. piped into `head`
            sys.stderr.close()
    return 0


if __name__ == "__main__":  # pragma: no cover — exercised via CLI tests
    sys.exit(main())
