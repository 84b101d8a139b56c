"""Chrome trace-event export of the span tree + event log.

``python -m repro.obs.trace <report.json|events.jsonl>`` converts a run
report (``repro.obs.report``) and/or its JSONL event-log sidecar
(``repro.obs.events``) into the Chrome trace-event format — a
``{"traceEvents": [...]}`` document loadable in ``chrome://tracing`` and
Perfetto. Spans become ``"X"`` complete events (microsecond ``ts`` /
``dur``), log events become ``"i"`` instant events at their emitting
pid, and ``"M"`` metadata events name each process lane.

Clock domains: the parent's spans and events share the recorder epoch
(``time.perf_counter() - epoch``), so they land on one timeline
directly. Events shipped home from pool workers carry the worker's *raw*
``perf_counter`` clock (epoch 0 — a worker cannot know the parent's
epoch). The exporter rebases each foreign pid onto the anchor timeline:
the pid's first event is pinned to the timestamp of the nearest
preceding anchor-pid event in sequence order (the merge point bounds it
from above, the preceding emit bounds it from below), and later events
of that pid keep their true relative spacing. The anchor pid comes from
the report's ``events`` section when exporting a report, else from the
first event in the log (``study.start`` is always parent-side).

A report is checked against the run-report schema before export, and an
event log through ``read_events``, so malformed input exits 2 naming
the field; only a torn final log line is tolerated.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from ..schema import problems as schema_problems
from .events import EVENT_KINDS, read_events
from .report import REPORT_KIND, REPORT_SCHEMA

TRACE_PHASES = {"X", "i", "M"}


def _us(seconds: float) -> float:
    return round(float(seconds) * 1e6, 3)


def _rebase_offsets(events: list[dict], anchor_pid: int) -> dict[int, float]:
    """Per-pid offsets (seconds) mapping each foreign pid's raw clock onto
    the anchor timeline. Anchor events pass through with offset 0."""
    offsets: dict[int, float] = {anchor_pid: 0.0}
    anchor_ts = 0.0
    pinned_at: dict[int, float] = {}   # pid -> anchor_ts at first sighting
    min_raw: dict[int, float] = {}     # pid -> earliest raw clock seen
    for event in sorted(events, key=lambda e: e.get("seq", 0)):
        pid = event.get("pid", anchor_pid)
        t = float(event.get("t_mono_s", 0.0))
        if pid == anchor_pid:
            anchor_ts = t
        else:
            # the parent may absorb a worker's jobs out of emission order,
            # so the pid's earliest raw clock (not its first-by-seq event)
            # is what gets pinned — everything else lands after it
            if pid not in pinned_at:
                pinned_at[pid] = anchor_ts
            if pid not in min_raw or t < min_raw[pid]:
                min_raw[pid] = t
    for pid, raw in min_raw.items():
        offsets[pid] = pinned_at[pid] - raw
    return offsets


def _event_args(event: dict) -> dict:
    skip = {"schema", "seq", "kind", "t_wall_s", "t_mono_s", "pid"}
    return {k: v for k, v in event.items() if k not in skip}


def build_trace(spans: list[dict] | None = None,
                events: list[dict] | None = None,
                anchor_pid: int | None = None) -> dict:
    """Assemble a Chrome trace document from a span list (report shape)
    and/or an event list (sidecar shape)."""
    spans = spans or []
    events = events or []
    if anchor_pid is None:
        anchor_pid = events[0].get("pid", 0) if events else 0
    offsets = _rebase_offsets(events, anchor_pid)
    trace_events: list[dict] = [
        {"ph": "M", "name": "process_name", "pid": anchor_pid, "tid": 0,
         "args": {"name": "repro study (driver)"}},
    ]
    for pid in sorted(offsets):
        if pid != anchor_pid:
            trace_events.append(
                {"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                 "args": {"name": f"repro render worker {pid}"}})
    for span in spans:
        entry = {
            "ph": "X",
            "name": span["name"],
            "pid": anchor_pid,
            "tid": 0,
            "ts": _us(span["start_s"]),
            "dur": _us(span["duration_s"]),
            "cat": "span",
        }
        if span.get("attrs"):
            entry["args"] = dict(span["attrs"])
        trace_events.append(entry)
    for event in sorted(events, key=lambda e: e.get("seq", 0)):
        pid = event.get("pid", anchor_pid)
        t = float(event.get("t_mono_s", 0.0)) + offsets.get(pid, 0.0)
        trace_events.append({
            "ph": "i",
            "name": event["kind"],
            "pid": pid,
            "tid": 0,
            "ts": _us(t),
            "s": "p",  # process-scoped instant marker
            "cat": "event",
            "args": _event_args(event),
        })
    return {"traceEvents": trace_events,
            "displayTimeUnit": "ms",
            "otherData": {"exporter": "repro.obs.trace"}}


def validate_trace(payload) -> list[str]:
    """Return the list of schema problems (empty == valid Chrome trace)."""
    problems: list[str] = []
    if not isinstance(payload, dict):
        return ["trace is not a JSON object"]
    trace_events = payload.get("traceEvents")
    if not isinstance(trace_events, list):
        return ["traceEvents must be an array"]
    for i, entry in enumerate(trace_events):
        if not isinstance(entry, dict):
            problems.append(f"traceEvents[{i}] is not an object")
            continue
        ph = entry.get("ph")
        if not isinstance(ph, str) or ph not in TRACE_PHASES:
            problems.append(f"traceEvents[{i}] has unsupported ph {ph!r}")
            continue
        if not isinstance(entry.get("name"), str):
            problems.append(f"traceEvents[{i}] missing string name")
        if not isinstance(entry.get("pid"), int):
            problems.append(f"traceEvents[{i}] missing integer pid")
        if ph in ("X", "i"):
            ts = entry.get("ts")
            if not isinstance(ts, (int, float)) or isinstance(ts, bool) \
                    or ts < 0:
                problems.append(f"traceEvents[{i}] needs non-negative ts")
        if ph == "X":
            dur = entry.get("dur")
            if not isinstance(dur, (int, float)) or isinstance(dur, bool) \
                    or dur < 0:
                problems.append(f"traceEvents[{i}] needs non-negative dur")
        if ph == "i" and isinstance(entry.get("name"), str) \
                and entry["name"] not in EVENT_KINDS:
            problems.append(
                f"traceEvents[{i}] instant kind {entry.get('name')!r} "
                f"is not a known event kind")
    return problems


# -- input dispatch ------------------------------------------------------------

def _read_log(path: str) -> list[dict]:
    """The events of an event log: a torn final line is tolerated, any
    other problem raises ValueError naming it."""
    events, problems = read_events(path)
    hard = [p for p in problems if not p.startswith("torn tail")]
    if hard:
        raise ValueError(f"{path}: " + "; ".join(hard))
    return events


def _load_trace(path: str) -> dict:
    """The trace ``path`` holds or exports to: a trace document as is, a
    run report's spans plus its sidecar's events, or an event log's
    events (a JSONL log does not parse as one JSON document). Raises
    ValueError naming what is malformed."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        payload = None
    if not isinstance(payload, dict):
        return build_trace(events=_read_log(path))
    if "traceEvents" in payload:
        return payload
    if payload.get("kind") != REPORT_KIND:
        raise ValueError(f"{path} is JSON but neither a trace document nor "
                         f"a {REPORT_KIND}")
    problems = schema_problems(payload, REPORT_SCHEMA)
    if problems:
        raise ValueError(f"{path} failed the run-report schema check:\n"
                         + "\n".join(f"  - {p}" for p in problems))
    section = payload["events"] or {"pid": None, "path": None}
    events: list[dict] = []
    if section["path"] is not None:
        # an absolute sidecar path survives the join unchanged
        sidecar = os.path.join(os.path.dirname(os.path.abspath(path)),
                               section["path"])
        try:
            events = _read_log(sidecar)
        except FileNotFoundError:
            print(f"warning: events sidecar missing at {sidecar}; "
                  f"exporting spans only", file=sys.stderr)
    return build_trace(spans=payload["spans"], events=events,
                       anchor_pid=section["pid"])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.trace",
        description="Export a run report and/or its event-log sidecar to "
                    "Chrome trace-event format (or --check an exported "
                    "trace).")
    parser.add_argument("path", help="run report JSON, events JSONL sidecar, "
                                     "or an exported trace (with --check)")
    parser.add_argument("--out", help="output path for the trace document "
                                      "(default: <input>.trace.json)")
    parser.add_argument("--check", action="store_true",
                        help="validate only; write nothing")
    args = parser.parse_args(argv)

    try:
        trace = _load_trace(args.path)
    except FileNotFoundError:
        print(f"error: no input at {args.path}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:  # a directory, bad bytes, bad fields
        print(f"error: {exc}", file=sys.stderr)
        return 2

    problems = validate_trace(trace)
    if problems:
        print(f"error: {args.path} produced an invalid trace:",
              file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 2
    if args.check:
        return 0
    out = args.out or (args.path + ".trace.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(trace, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(trace['traceEvents'])} trace events -> {out}")
    return 0


if __name__ == "__main__":  # pragma: no cover — exercised via CLI tests
    sys.exit(main())
