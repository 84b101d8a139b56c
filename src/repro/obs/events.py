"""repro.obs.events — the crash-safe, append-only study event log.

Where the recorder keeps *aggregates* (spans, counters, histograms), the
event log keeps the *sequence*: every retry, pool rebuild, shard
commit, cache miss and batch render lands as one JSONL line the
moment it happens. That ordering is exactly what aggregate metrics throw
away — and exactly what debugging a sharded million-user run (or proving
the measurement infrastructure did not perturb the fingerprints it
measured) requires.

Data model
----------
One event is one flat JSON object:

    {"schema": 2, "seq": 12, "kind": "job.retry",
     "t_wall_s": 1754650000.12, "t_mono_s": 3.5041, "pid": 4242, ...}

``schema`` versions the record shape, ``kind`` is drawn from the closed
``EVENT_KINDS`` registry (an unknown kind is a bug, caught at emit *and*
at validation), ``seq`` is the recorder-assigned append index,
``t_mono_s`` is ``time.perf_counter`` relative to the recorder epoch
(the clock spans use, so traces line up), ``t_wall_s`` is wall time,
``pid`` identifies the emitting process. Everything else is the event's
payload.

One clock: ``perf_counter`` is ``CLOCK_MONOTONIC``, which is system-wide,
so a forked pool worker reads the same clock as its parent.
``make_event`` stamps the raw clock and the recorder that takes the
event, its own or a worker's, subtracts its epoch. Schema 2 marks that
meaning of a worker's ``t_mono_s``: a schema-1 log, whose worker events
kept the worker's raw clock, is refused by name.

Crash safety
------------
``EventLog`` is the crash-safe file layer's append-only JSONL log
(``repro.io.JsonlLog``), the same class the service WAL is: one flushed
line per event, so a SIGKILL can tear at most the final line, and
opening a log quarantines that fragment to ``<path>.corrupt`` so
appending resumes on a clean line boundary. ``read_events`` parses with
the same line scanner; it tolerates a torn tail (the events before it
are intact) but reports it, so ``repro.obs.report --check`` can refuse a
report whose sidecar lost events.

Determinism
-----------
Inline runs (workers=0) emit events in plan order, so two identical runs
produce byte-identical logs after ``normalize_events`` strips the
volatile fields (timestamps, pid, measured walls). Pooled runs complete
jobs in scheduler order; ``canonical_events`` additionally drops ``seq``
and sorts by content, giving the order-free form that is byte-identical
at any worker count.

Workers cannot append to the parent's log; their events ride home inside
the metrics dict next to the eFPs (see ``population.study``) and are
merged seq-ordered by the parent — the same boundary-crossing protocol
metrics snapshots use.
"""
from __future__ import annotations

import json
import os
import time

from ..io import JsonlLog, scan_lines
from ..schema import COUNT, NON_NEGATIVE, NUMBER, optional
from ..schema import problems as schema_problems

EVENT_SCHEMA = 2

#: the closed registry of event kinds (schema-versioned: extending it is
#: an EVENT_SCHEMA-visible change)
EVENT_KINDS = frozenset({
    # study lifecycle
    "study.start", "study.end",
    "phase.start", "phase.end",
    # render cache
    "cache.miss",
    # supervised execution
    "job.failed", "job.retry", "job.bisected", "job.quarantined",
    "pool.rebuild", "pool.inline_fallback",
    # render workers (shipped across the pool boundary)
    "render.batch",
    # sharded studies
    "shard.start", "shard.end", "shard.resume", "shard.quarantine",
    # online matching service (repro.service)
    "service.start", "service.stop",
    "ingest.batch", "ingest.shed",
    "lookup.deadline_miss", "lookup.degraded",
    "breaker.open", "breaker.half_open", "breaker.close",
    "wal.torn_tail", "snapshot.write", "snapshot.corrupt_quarantine",
    "replay.start", "replay.end",
})

#: reserved top-level record fields a payload may not shadow
RESERVED_FIELDS = frozenset({"schema", "seq", "kind", "t_wall_s",
                             "t_mono_s", "pid"})

#: the envelope fields ``read_events`` checks once ``schema`` and ``kind``
#: are known: what trace export orders, lanes and places events by
#: (``seq`` is absent only on a record emitted outside a recorder)
_ENVELOPE = {"seq": optional(COUNT), "pid": COUNT,
             "t_mono_s": NON_NEGATIVE, "t_wall_s": NUMBER}

#: fields stripped by ``normalize_events``: process identity, clocks, and
#: measured durations — everything that legitimately varies between two
#: runs of the same seeded study
VOLATILE_FIELDS = frozenset({"t_wall_s", "t_mono_s", "pid",
                             "wall_s", "delay_s"})


def make_event(kind: str, **fields) -> dict:
    """Build one event record stamped with the raw ``perf_counter`` clock
    (no ``seq``: the recorder that takes it assigns that, and rebases the
    stamp onto its epoch)."""
    if kind not in EVENT_KINDS:
        raise ValueError(f"unknown event kind {kind!r} "
                         f"(EVENT_SCHEMA {EVENT_SCHEMA} kinds: "
                         f"{sorted(EVENT_KINDS)})")
    if not RESERVED_FIELDS.isdisjoint(fields):
        clash = sorted(RESERVED_FIELDS & set(fields))
        raise ValueError(f"event payload may not shadow reserved "
                         f"field(s) {clash}")
    event = {
        "schema": EVENT_SCHEMA,
        "kind": kind,
        "t_wall_s": time.time(),
        "t_mono_s": time.perf_counter(),
        "pid": os.getpid(),
    }
    event.update(fields)
    return event


class EventLog(JsonlLog):
    """The study's append-only JSONL sink (``repro.io.JsonlLog``): one
    flushed line per event, and opening the log quarantines a torn tail
    to ``<path>.corrupt`` before appending anything new."""

    emit = JsonlLog.append


def read_events(path: str) -> tuple[list[dict], list[str]]:
    """Parse an event-log file; return ``(events, problems)``.

    A torn final line (no trailing newline, or unparseable last line of a
    file that was being appended when the process died) is *tolerated* —
    the events before it are returned — but reported as a problem so
    validators can decide whether torn is acceptable. Any other bad
    line, an unknown ``kind``, a foreign ``schema``, or an envelope field
    of the wrong type is a hard problem; reading goes on past each.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    events: list[dict] = []
    problems: list[str] = []
    for line, (start, end, event) in enumerate(scan_lines(data), 1):
        if event is None:
            if end == len(data):
                problems.append(f"torn tail at line {line} "
                                f"({end - start} bytes)")
            else:
                problems.append(f"corrupt event at line {line}")
            continue
        if event.get("schema") != EVENT_SCHEMA:
            problems.append(f"event at line {line} has schema "
                            f"{event.get('schema')!r} "
                            f"(expected {EVENT_SCHEMA})")
            continue
        if not isinstance(event.get("kind"), str) \
                or event["kind"] not in EVENT_KINDS:
            problems.append(f"event at line {line} has unknown kind "
                            f"{event.get('kind')!r}")
            continue
        envelope = schema_problems(event, _ENVELOPE)
        if envelope:
            problems.extend(f"event at line {line}: {problem}"
                            for problem in envelope)
            continue
        events.append(event)
    return events, problems


def normalize_events(events: list[dict]) -> list[dict]:
    """Strip the volatile fields (clocks, pid, measured walls), keeping
    ``seq`` and order — the deterministic view of an inline run."""
    return [{k: v for k, v in event.items() if k not in VOLATILE_FIELDS}
            for event in events]


def canonical_events(events: list[dict]) -> list[dict]:
    """Order-free deterministic view: normalized, ``seq`` dropped, sorted
    by content. Two pooled runs of the same seeded study agree on this
    form at any worker count — scheduling only permutes completion
    order, never the set of events."""
    stripped = [{k: v for k, v in event.items()
                 if k not in VOLATILE_FIELDS and k != "seq"}
                for event in events]
    return sorted(stripped,
                  key=lambda e: (e.get("kind", ""),
                                 json.dumps(e, sort_keys=True)))
