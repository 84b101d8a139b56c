"""repro.obs — zero-dependency observability for the render pipeline.

Three layers, all stdlib-only so every other package may import this one
(and nothing here imports any other repro package but two dependency-free
modules: ``report`` and ``events`` use the ``repro.schema`` walker, and
``events`` writes and reads its log through the crash-safe file layer,
``repro.io``):

  recorder   span tracer (context-manager API, monotonic clocks, nesting),
             counters, and sparse exponential histograms, behind a
             ``Recorder`` / ``NullRecorder`` null-object pair — disabled
             observability costs a constant handful of no-op calls per
             study, never per render.
  profiler   opt-in per-node timing for the webaudio engine, activated via
             a contextvar so the engine's hot loop stays untouched when
             profiling is off.
  events     the crash-safe append-only JSONL event log: the *sequence* of
             retries, rebuilds, checkpoint writes and shard quarantines
             that aggregates throw away (see ``repro.obs.events``).
  progress   the opt-in stderr heartbeat for long runs (``ProgressMeter``).
  report     the machine-readable run report: build/validate/render, plus
             the ``python -m repro.obs.report`` CLI.
  trace      Chrome trace-event export of the span tree + event log
             (``python -m repro.obs.trace``), loadable in Perfetto.

Metrics cross the process-pool boundary as plain dicts: each pool worker
returns a serializable metrics dict per render batch next to its eFPs,
and the parent folds them into its own ``Recorder`` (see
``population.study``), so aggregate counters are identical at any worker
count.
"""

from .events import (EVENT_KINDS, EVENT_SCHEMA, EventLog,  # noqa: F401
                     canonical_events, make_event, normalize_events,
                     read_events)
from .recorder import Histogram, NullRecorder, NULL_RECORDER, Recorder  # noqa: F401
from .profiler import NodeProfiler, current_node_profiler, profile_nodes  # noqa: F401
from .progress import ProgressMeter  # noqa: F401

_REPORT_EXPORTS = ("build_report", "validate_report", "render_report")


def __getattr__(name):
    # Lazy so `python -m repro.obs.report` doesn't import the module twice
    # (once here, once as __main__ — runpy warns about that).
    if name in _REPORT_EXPORTS:
        from . import report
        return getattr(report, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "Recorder",
    "NullRecorder",
    "NULL_RECORDER",
    "Histogram",
    "NodeProfiler",
    "profile_nodes",
    "current_node_profiler",
    "build_report",
    "validate_report",
    "render_report",
    "EventLog",
    "EVENT_KINDS",
    "EVENT_SCHEMA",
    "make_event",
    "read_events",
    "normalize_events",
    "canonical_events",
    "ProgressMeter",
]
