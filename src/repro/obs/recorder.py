"""Recorder: spans, counters, histograms — and its null object.

The Recorder is the single mutable sink for everything the pipeline wants
to measure. Spans use monotonic ``time.perf_counter`` timestamps relative
to the recorder's epoch, nest through an explicit stack (so exports carry
parent ids), and are recorded on close. Counters are plain float sums.
Histograms are sparse base-2 exponential buckets anchored at 1 µs.
Process-pool workers never touch the parent's recorder: each returns a
plain metrics dict per batch, which the study driver folds in through
the ordinary ``count``/``observe``/``record_node_profile``/``merge_event``
calls (``repro.population.study._absorb_batch_metrics``).

``NullRecorder`` is the off switch: every method is a no-op and ``span``
returns one shared, preallocated handle, so a disabled study performs a
constant number of cheap calls per run and zero allocations per render.
"""
from __future__ import annotations

import math
import time

from .events import make_event


class Histogram:
    """Sparse exponential histogram: bucket ``i`` holds values in
    ``(BASE_S * 2**(i-1), BASE_S * 2**i]`` (bucket 0 is ``<= BASE_S``)."""

    __slots__ = ("count", "total", "min", "max", "buckets")

    BASE_S = 1e-6
    MAX_BUCKET = 63  # BASE_S * 2**63 ≈ 292k years; everything clamps below

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self.buckets: dict[int, int] = {}

    @classmethod
    def bucket_index(cls, value: float) -> int:
        if value <= cls.BASE_S:
            return 0
        return min(cls.MAX_BUCKET, math.ceil(math.log2(value / cls.BASE_S)))

    @classmethod
    def bucket_upper_bound(cls, index: int) -> float:
        return cls.BASE_S * (2.0 ** index)

    def observe(self, value: float, count: int = 1) -> None:
        """Record ``value`` ``count`` times (one call for a batch's rows)."""
        value = float(value)
        self.count += count
        self.total += value * count
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        index = self.bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + count

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def approx_quantile(self, q: float) -> float:
        """Quantile estimate, exact for min/max (q<=0 / q>=1).

        Interior quantiles interpolate to the *geometric midpoint* of the
        winning bucket's bounds — ``sqrt(lower * upper)``, i.e. half an
        octave below the upper bound — instead of pessimistically
        reporting the bound itself, then clamp into ``[min, max]``. For
        exponential buckets the midpoint halves the worst-case relative
        error (from 2x to sqrt(2)x) without biasing one direction. The
        boundary ranks stay exact too: rank 1 *is* the tracked min and
        rank ``count`` *is* the tracked max, so e.g. q=0.99 over ten
        observations returns the max itself, not a bucket estimate.
        """
        if not self.count:
            return 0.0
        if q <= 0.0:
            return self.min or 0.0
        if q >= 1.0:
            return self.max or 0.0
        rank = math.ceil(q * self.count)
        if rank <= 1:
            return self.min or 0.0
        if rank >= self.count:
            return self.max or 0.0
        seen = 0
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen >= rank:
                midpoint = self.bucket_upper_bound(index) / math.sqrt(2.0)
                low = self.min if self.min is not None else 0.0
                high = self.max if self.max is not None else midpoint
                return min(max(midpoint, low), high)
        return self.max or 0.0

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": {str(i): n for i, n in sorted(self.buckets.items())},
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Histogram":
        hist = cls()
        hist.count = int(payload["count"])
        hist.total = float(payload["sum"])
        hist.min = payload["min"]
        hist.max = payload["max"]
        hist.buckets = {int(i): int(n) for i, n in payload["buckets"].items()}
        return hist


class _SpanHandle:
    """One ``with recorder.span(...)`` activation; records itself on exit."""

    __slots__ = ("_recorder", "name", "attrs", "id", "parent_id",
                 "_start", "duration_s")

    def __init__(self, recorder: "Recorder", name: str, attrs: dict):
        self._recorder = recorder
        self.name = name
        self.attrs = attrs
        self.id = -1
        self.parent_id: int | None = None
        self._start = 0.0
        self.duration_s = 0.0

    def set(self, **attrs) -> "_SpanHandle":
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "_SpanHandle":
        rec = self._recorder
        self.id = rec._next_span_id
        rec._next_span_id += 1
        self.parent_id = rec._open_spans[-1] if rec._open_spans else None
        rec._open_spans.append(self.id)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = time.perf_counter()
        rec = self._recorder
        rec._open_spans.pop()
        self.duration_s = end - self._start
        record = {
            "id": self.id,
            "name": self.name,
            "parent": self.parent_id,
            "start_s": self._start - rec._epoch,
            "duration_s": self.duration_s,
        }
        if self.attrs:
            record["attrs"] = dict(self.attrs)
        rec.spans.append(record)
        return False


class _NullSpan:
    """Shared no-op span handle: entering/exiting allocates nothing."""

    __slots__ = ()
    duration_s = 0.0

    def set(self, **attrs) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Recorder:
    """The live metrics sink. See module docstring for the data model."""

    enabled = True

    def __init__(self):
        self._epoch = time.perf_counter()
        self.spans: list[dict] = []
        self.counters: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}
        #: node_profile[stack_key][node_label] = {"seconds": s, "calls": n}
        self.node_profile: dict[str, dict[str, dict]] = {}
        #: the ordered event sequence (see repro.obs.events); each entry
        #: also streams to the attached EventLog the moment it lands
        self.events: list[dict] = []
        self._event_log = None
        self._open_spans: list[int] = []
        self._next_span_id = 0

    # -- spans --------------------------------------------------------------
    def span(self, name: str, **attrs) -> _SpanHandle:
        return _SpanHandle(self, name, attrs)

    # -- events --------------------------------------------------------------
    def event(self, kind: str, **fields) -> None:
        """Record one event."""
        self._append_event(make_event(kind, **fields))

    def merge_event(self, event: dict) -> None:
        """Fold in an event made elsewhere (a pool worker's, shipped home
        inside a metrics dict): it keeps its own pid."""
        self._append_event(dict(event))

    def _append_event(self, event: dict) -> None:
        """Take one event: its raw ``perf_counter`` stamp is rebased to
        this recorder's epoch, so events and spans share a clock (a forked
        worker's clock is this process's), and it takes the next ``seq``."""
        event["t_mono_s"] -= self._epoch
        event["seq"] = len(self.events)
        self.events.append(event)
        if self._event_log is not None:
            self._event_log.emit(event)

    def attach_event_log(self, log) -> None:
        """Stream every subsequent event to ``log`` (an
        ``repro.obs.events.EventLog``) as well as the in-memory list."""
        self._event_log = log

    def detach_event_log(self):
        log = self._event_log
        self._event_log = None
        return log

    # -- counters / histograms ----------------------------------------------
    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def observe(self, name: str, value: float, count: int = 1) -> None:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.observe(value, count)

    # -- per-node profiles ---------------------------------------------------
    def record_node_profile(self, stack_key: str, seconds: dict,
                            calls: dict | None = None) -> None:
        per_stack = self.node_profile.setdefault(stack_key, {})
        for label, spent in seconds.items():
            entry = per_stack.setdefault(label, {"seconds": 0.0, "calls": 0})
            entry["seconds"] += float(spent)
            entry["calls"] += int(calls[label]) if calls else 1

    # -- serialization -------------------------------------------------------
    def snapshot(self) -> dict:
        """A JSON-serializable copy of everything recorded so far."""
        return {
            "enabled": True,
            "spans": [dict(s) for s in self.spans],
            "events": [dict(e) for e in self.events],
            "counters": dict(self.counters),
            "histograms": {k: h.to_dict() for k, h in self.histograms.items()},
            "node_profile": {
                stack: {label: dict(entry) for label, entry in nodes.items()}
                for stack, nodes in self.node_profile.items()
            },
        }


class NullRecorder:
    """Null object standing in for Recorder when observability is off.

    Every method is a no-op; ``span`` hands back one preallocated handle.
    ``enabled`` is the switch callers branch on to skip per-render work
    entirely (see ``population.study``).
    """

    enabled = False
    __slots__ = ()

    def span(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def event(self, kind: str, **fields) -> None:
        pass

    def merge_event(self, event: dict) -> None:
        pass

    def attach_event_log(self, log) -> None:
        pass

    def detach_event_log(self):
        return None

    def count(self, name: str, value: float = 1) -> None:
        pass

    def observe(self, name: str, value: float, count: int = 1) -> None:
        pass

    def record_node_profile(self, stack_key: str, seconds: dict,
                            calls: dict | None = None) -> None:
        pass

    def snapshot(self) -> dict:
        return {"enabled": False, "spans": [], "events": [], "counters": {},
                "histograms": {}, "node_profile": {}}


NULL_RECORDER = NullRecorder()
