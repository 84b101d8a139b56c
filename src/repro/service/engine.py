"""The asyncio fingerprint-matching engine: ingest, lookup, survive.

One consumer task owns all state mutation; everything around it is the
robustness envelope the service promises its callers:

* **Admission control** — the ingest queue is bounded. A full queue
  sheds *at the front door* with a typed ``IngestShed(queue_full)``
  response instead of queueing unboundedly or silently dropping.
* **Deadlines** — every request carries a monotonic-clock deadline
  (``time.monotonic`` by default, injectable for tests — never wall
  time, so an NTP step cannot fire deadlines early). Queued visits
  whose deadline passes before the consumer reaches them are answered
  ``IngestShed(deadline_exceeded)``, unlogged and unapplied.
* **Circuit breaker + degradation** — lookup deadline misses feed a
  sliding window; sustained misses trip the breaker and lookups are
  answered from the last snapshot's precomputed view, flagged
  ``degraded=True`` with ``stale_by_visits`` staleness — answered, not
  errored. A half-open probe closes the breaker when latency recovers.
* **Durability** — visits are WAL-appended, and each batch is fsync'd
  once (group commit), *before* they mutate state or are acked (see
  ``wal``); periodic snapshots bound replay. ``recover()`` rebuilds
  state through the same ``apply`` path as live ingest, so a SIGKILL'd
  service replays to byte-identical state (``state_bytes()`` is the
  comparison surface).

Fault hooks (``repro.resilience.faults``): ``torn_wal`` kills the
service mid-append exactly as a SIGKILL would, ``crashed_snapshot``
tears a snapshot write, ``slow_consumer`` stalls the consumer to force
backpressure — all seed-deterministic via the shared fault-plan ledger.
"""
from __future__ import annotations

import asyncio
import os
import time
from collections import deque
from dataclasses import dataclass

from ..io import quarantine
from ..obs import NULL_RECORDER
from ..resilience import faults
from ..vectors import get_vector
from ..vectors.base import is_efp
from .errors import (SHED_DEADLINE, SHED_QUEUE_FULL, SHED_STOPPING,
                     IngestAccepted, IngestShed, LookupResult,
                     MalformedVisitError, ServiceCrashed, ServiceStopped)
from .state import ServiceState
from .wal import SNAPSHOT_NAME, WAL_NAME, SnapshotStore, WriteAheadLog, read_wal


@dataclass(frozen=True)
class ServiceConfig:
    """Service tuning knobs; every field validated at construction."""

    queue_limit: int = 256          # bounded ingest queue (admission control)
    batch_max: int = 32             # visits per consumer wakeup (group commit)
    ingest_deadline_s: float = 2.0
    lookup_deadline_s: float = 0.25
    breaker_window: int = 32        # sliding window of lookup outcomes
    breaker_min_samples: int = 8    # don't trip on thin evidence
    breaker_threshold: float = 0.5  # miss fraction that trips
    breaker_cooldown_s: float = 0.5
    snapshot_every: int = 256       # applied visits between snapshots

    def __post_init__(self):
        for name in ("queue_limit", "batch_max", "breaker_window",
                     "breaker_min_samples", "snapshot_every"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < 1:
                raise ValueError(
                    f"{name} must be a positive integer, got {value!r}")
        for name in ("ingest_deadline_s", "lookup_deadline_s",
                     "breaker_cooldown_s"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value!r}")
        if not 0 < self.breaker_threshold <= 1:
            raise ValueError(f"breaker_threshold must lie in (0, 1], got "
                             f"{self.breaker_threshold!r}")


class CircuitBreaker:
    """Classic three-state breaker over a sliding window of outcomes.

    closed --(miss fraction >= threshold over >= min_samples)--> open
    open --(cooldown elapses; next request probes)--> half_open
    half_open --(probe hits)--> closed / --(probe misses)--> open

    All timing via the injected monotonic clock.
    """

    CLOSED, OPEN, HALF_OPEN = "closed", "open", "half_open"

    def __init__(self, *, window: int, min_samples: int, threshold: float,
                 cooldown_s: float, clock=time.monotonic, on_transition=None):
        self.state = self.CLOSED
        self.trips = 0
        self._misses: deque = deque(maxlen=window)
        self._min_samples = min_samples
        self._threshold = threshold
        self._cooldown_s = cooldown_s
        self._clock = clock
        self._on_transition = on_transition
        self._open_until = 0.0
        self._probe_inflight = False

    def allow_live(self) -> bool:
        """May this request be served from live state? False = degrade."""
        if self.state == self.CLOSED:
            return True
        if self.state == self.OPEN:
            if self._clock() < self._open_until:
                return False
            self._transition(self.HALF_OPEN)
        if self._probe_inflight:
            return False
        self._probe_inflight = True
        return True

    def record(self, miss: bool) -> None:
        """Fold one live-request outcome in (degraded answers don't count)."""
        if self.state == self.HALF_OPEN:
            self._probe_inflight = False
            if miss:
                self._trip()
            else:
                self._misses.clear()
                self._transition(self.CLOSED)
            return
        if self.state == self.OPEN:
            return  # a live request that raced the trip; already decided
        self._misses.append(bool(miss))
        if len(self._misses) >= self._min_samples \
                and sum(self._misses) / len(self._misses) >= self._threshold:
            self._trip()

    def _trip(self) -> None:
        self.trips += 1
        self._misses.clear()
        self._open_until = self._clock() + self._cooldown_s
        self._transition(self.OPEN)

    def _transition(self, to: str) -> None:
        if to != self.state:
            self.state = to
            if self._on_transition is not None:
                self._on_transition(to)


_BREAKER_EVENTS = {CircuitBreaker.OPEN: "breaker.open",
                   CircuitBreaker.HALF_OPEN: "breaker.half_open",
                   CircuitBreaker.CLOSED: "breaker.close"}


class FingerprintService:
    """The online matching service over one directory of durable state."""

    def __init__(self, directory: str, vectors=("dc", "fft"), *,
                 config: ServiceConfig | None = None,
                 recorder=NULL_RECORDER, clock=time.monotonic):
        vectors = tuple(vectors)
        if not vectors:
            raise ValueError("service must serve at least one vector")
        if len(set(vectors)) != len(vectors):
            raise ValueError(f"duplicate vector in {vectors}")
        for vector in vectors:
            get_vector(vector)  # unknown name -> UnknownVectorError
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.vectors = vectors
        self._served = frozenset(vectors)
        self.config = config if config is not None else ServiceConfig()
        self._recorder = recorder
        self._measuring = bool(getattr(recorder, "enabled", False))
        self._clock = clock
        self.state = ServiceState(vectors)
        self.wal: WriteAheadLog | None = None
        self.snapshots = SnapshotStore(os.path.join(directory, SNAPSHOT_NAME))
        self.breaker = CircuitBreaker(
            window=self.config.breaker_window,
            min_samples=self.config.breaker_min_samples,
            threshold=self.config.breaker_threshold,
            cooldown_s=self.config.breaker_cooldown_s,
            clock=clock, on_transition=self._on_breaker)
        self.counts = {
            "ingested": 0, "duplicates": 0,
            "shed_queue_full": 0, "shed_deadline": 0, "shed_stopping": 0,
            "lookups": 0, "lookups_degraded": 0, "lookup_deadline_misses": 0,
            "snapshot_writes": 0, "snapshot_torn": 0,
        }
        self.recovery: dict = {}
        self.crashed: ServiceCrashed | None = None
        self._phase = "new"          # new -> running -> stopping -> stopped
        self._queue: asyncio.Queue | None = None
        self._consumer: asyncio.Task | None = None
        self._applied_at_snapshot = 0
        self._stale_view: dict = {}  # last-snapshot lookup answers
        self._stale_applied = 0

    @property
    def wal_path(self) -> str:
        return os.path.join(self.directory, WAL_NAME)

    # -- recovery --------------------------------------------------------------
    def recover(self) -> dict:
        """Rebuild state from snapshot + WAL replay (the same ``apply``
        path live ingest uses). Synchronous and side-effect-free on the
        WAL file — usable standalone (``--replay``) as well as from
        ``start()``. Returns a recovery summary dict."""
        if self._phase != "new":
            raise RuntimeError(
                f"recover() on a {self._phase} service would clobber "
                "live state; construct a fresh instance")
        self._recorder.event("replay.start")
        info = {"resumed_from_snapshot": False, "snapshot_problem": None,
                "wal_offset": 0, "replayed": 0, "wal_torn_tail": False,
                "wal_problems": []}
        snapshot, offset, problem = self.snapshots.load()
        state = None
        if snapshot is not None:
            try:
                state = ServiceState.from_state(snapshot)
            except (KeyError, TypeError, ValueError) as exc:
                quarantine(self.snapshots.path)
                problem = f"snapshot state rejected ({exc})"
        if state is not None and tuple(state.vectors) != self.vectors:
            raise ValueError(
                f"snapshot in {self.directory!r} serves vectors "
                f"{tuple(state.vectors)}, service configured for "
                f"{self.vectors}")
        if problem is not None:
            info["snapshot_problem"] = problem
            self._recorder.event("snapshot.corrupt_quarantine",
                                 problem=problem)
        if state is None:
            state = ServiceState(self.vectors)
            offset = 0  # no (usable) snapshot: replay the whole WAL
        else:
            info["resumed_from_snapshot"] = True
            info["wal_offset"] = offset
        records, torn, problems = read_wal(self.wal_path, offset)
        for record in records:
            state.apply(record)
        info["replayed"] = len(records)
        info["wal_torn_tail"] = torn
        info["wal_problems"] = problems
        if torn:
            self._recorder.event("wal.torn_tail")
        self.state = state
        self._applied_at_snapshot = state.applied
        self._rebuild_stale_view()
        self._recorder.event(
            "replay.end", replayed=len(records),
            resumed_from_snapshot=info["resumed_from_snapshot"])
        self.recovery = info
        return info

    # -- lifecycle -------------------------------------------------------------
    async def start(self) -> None:
        if self._phase != "new":
            raise RuntimeError(
                f"service in phase {self._phase!r} cannot start "
                "(construct a fresh instance per run)")
        self.recover()
        self.wal = WriteAheadLog(self.wal_path)
        self._queue = asyncio.Queue(maxsize=self.config.queue_limit)
        self._consumer = asyncio.create_task(self._consume())
        self._phase = "running"
        self._recorder.event("service.start", vectors=list(self.vectors),
                             applied=self.state.applied)

    async def stop(self) -> None:
        """Drain the queue (every accepted visit is answered), write a
        final snapshot, close the WAL."""
        if self._phase != "running":
            return
        self._phase = "stopping"
        if not self._consumer.done():
            await self._queue.put(None)  # sentinel: nothing follows it
        try:
            await self._consumer
        finally:
            self._phase = "stopped"
        if self.crashed is not None:
            # died mid-append (injected): leave the disk exactly as the
            # kill left it — recovery is the next instance's job
            return
        self.wal.close()
        self._write_snapshot()
        self._recorder.event("service.stop", applied=self.state.applied)

    # -- front door ------------------------------------------------------------
    def _validate(self, visit) -> dict:
        """Reject malformed payloads by name before they touch the
        queue, the WAL, or any state (mirrors ``run_study``'s
        validation posture)."""
        record = visit.to_record() if hasattr(visit, "to_record") \
            else dict(visit)
        for field_name in ("visit_id", "user", "os", "browser"):
            value = record.get(field_name)
            if not isinstance(value, str) or not value:
                raise MalformedVisitError(field_name,
                                          "must be a non-empty string")
        efps = record.get("efps")
        if not isinstance(efps, dict) or not efps:
            raise MalformedVisitError(
                "efps", "must be a non-empty object of vector -> eFP")
        for vector, efp in efps.items():
            if vector not in self._served:
                get_vector(vector)  # unknown name -> UnknownVectorError
                raise MalformedVisitError(
                    "efps", f"vector {vector!r} is registered but not served "
                    f"here (serving {sorted(self._served)})")
            if not is_efp(efp):
                raise MalformedVisitError(
                    "efps", f"{vector!r} value must be a 32-char lowercase "
                    "hex digest")
        return {"visit_id": record["visit_id"], "user": record["user"],
                "os": record["os"], "browser": record["browser"],
                "efps": dict(efps)}

    async def ingest(self, visit, *, deadline_s: float | None = None):
        """Submit one visit; resolves to ``IngestAccepted`` (durable,
        collated) or ``IngestShed`` (typed refusal). Raises only on
        caller bugs (malformed payload, stopped service)."""
        if self.crashed is not None:
            raise self.crashed
        if self._phase == "stopping":
            record = self._validate(visit)
            self.counts["shed_stopping"] += 1
            if self._measuring:
                self._recorder.count("service.shed.stopping")
                self._recorder.event("ingest.shed", reason=SHED_STOPPING,
                                     visit_id=record["visit_id"])
            return IngestShed(record["visit_id"], SHED_STOPPING)
        if self._phase != "running":
            raise ServiceStopped(f"ingest on a {self._phase} service")
        record = self._validate(visit)
        if self._queue.full():
            self.counts["shed_queue_full"] += 1
            if self._measuring:
                self._recorder.count("service.shed.queue_full")
                self._recorder.event("ingest.shed", reason=SHED_QUEUE_FULL,
                                     visit_id=record["visit_id"])
            return IngestShed(record["visit_id"], SHED_QUEUE_FULL)
        start = self._clock()
        deadline = start + (self.config.ingest_deadline_s
                            if deadline_s is None else deadline_s)
        future = asyncio.get_running_loop().create_future()
        self._queue.put_nowait((record, future, deadline, start))
        return await future

    async def lookup(self, user: str, *,
                     deadline_s: float | None = None) -> LookupResult:
        """Which identity is ``user``, with what anonymity set? Always
        answers: live when healthy, last-snapshot ``degraded=True``
        otherwise."""
        if self.crashed is not None:
            raise self.crashed
        if self._phase not in ("running", "stopping"):
            raise ServiceStopped(f"lookup on a {self._phase} service")
        if not isinstance(user, str) or not user:
            raise MalformedVisitError("user", "must be a non-empty string")
        self.counts["lookups"] += 1
        start = self._clock()
        deadline = start + (self.config.lookup_deadline_s
                            if deadline_s is None else deadline_s)
        if not self.breaker.allow_live():
            self.counts["lookups_degraded"] += 1
            if self._measuring:
                self._recorder.count("service.lookup.degraded")
                self._recorder.event("lookup.degraded", user=user)
            return self._stale_lookup(user, deadline_missed=False)
        found, identities, anonymity = self.state.lookup(user)
        end = self._clock()
        miss = end > deadline
        self.breaker.record(miss)
        if self._measuring:
            self._recorder.observe("service.lookup_latency_s", end - start)
        if miss:
            self.counts["lookup_deadline_misses"] += 1
            if self._measuring:
                self._recorder.count("service.lookup.deadline_miss")
                self._recorder.event("lookup.deadline_miss", user=user)
            return self._stale_lookup(user, deadline_missed=True)
        return LookupResult(user=user, found=found, identities=identities,
                            anonymity_sets=anonymity)

    # -- the consumer (sole state mutator) ------------------------------------
    async def _consume(self) -> None:
        stopping = False
        while True:
            batch = [await self._queue.get()]
            while len(batch) < self.config.batch_max:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            stall = faults.slow_consumer()
            if stall:
                await asyncio.sleep(stall)
            entries = [e for e in batch if e is not None]
            stopping = stopping or len(entries) != len(batch)
            try:
                self._process(entries)
            except ServiceCrashed as exc:
                self.crashed = exc
                self._fail_queued(exc)
                return  # every awaiter got the error; nothing to re-raise
            if stopping:
                return  # the sentinel is the queue's last item by protocol

    def _process(self, entries) -> None:
        now = self._clock()
        to_apply = []
        crashed = None
        for record, future, deadline, start in entries:
            if future.done():
                continue  # awaiter went away (cancelled)
            if now > deadline:
                self.counts["shed_deadline"] += 1
                if self._measuring:
                    self._recorder.count("service.shed.deadline")
                    self._recorder.event("ingest.shed", reason=SHED_DEADLINE,
                                         visit_id=record["visit_id"])
                future.set_result(IngestShed(record["visit_id"],
                                             SHED_DEADLINE))
                continue
            if record["visit_id"] in self.state.seen:
                identities, anonymity, _, _ = self.state.apply(record)
                self.counts["duplicates"] += 1
                future.set_result(IngestAccepted(
                    record["visit_id"], record["user"], duplicate=True,
                    identities=identities, anonymity_sets=anonymity))
                continue
            try:
                self.wal.append(record)
            except ServiceCrashed as exc:
                future.set_exception(exc)
                crashed = exc
                break
            to_apply.append((record, future, start))
        if crashed is not None:
            for _, future, _, _ in entries:
                if not future.done():
                    future.set_exception(crashed)
            raise crashed
        self.wal.sync()
        # commit point: every record below is durable before it is acked
        applied = 0
        for record, future, start in to_apply:
            identities, anonymity, detections, duplicate = \
                self.state.apply(record)
            self.counts["duplicates" if duplicate else "ingested"] += 1
            applied += 1
            future.set_result(IngestAccepted(
                record["visit_id"], record["user"], duplicate=duplicate,
                identities=identities, anonymity_sets=anonymity,
                detections=detections))
            if self._measuring:
                self._recorder.observe("service.ingest_latency_s",
                                       self._clock() - start)
        if applied and self._measuring:
            self._recorder.event("ingest.batch", size=applied)
        if self.state.applied - self._applied_at_snapshot \
                >= self.config.snapshot_every:
            self._write_snapshot()

    def _fail_queued(self, exc: ServiceCrashed) -> None:
        """On an injected crash, unblock every queued awaiter the way a
        real dead process's clients are unblocked (by an error)."""
        while True:
            try:
                item = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                return
            if item is None:
                continue
            _, future, _, _ = item
            if not future.done():
                future.set_exception(exc)

    # -- snapshots / degradation ----------------------------------------------
    def _write_snapshot(self) -> None:
        offset = self.wal.offset if self.wal is not None else 0
        if self.snapshots.write(self.state.state_dict(), offset):
            self.counts["snapshot_writes"] += 1
            self._applied_at_snapshot = self.state.applied
            self._rebuild_stale_view()
            self._recorder.event("snapshot.write",
                                 applied=self.state.applied)
        else:
            self.counts["snapshot_torn"] += 1  # injected crashed_snapshot

    def _rebuild_stale_view(self) -> None:
        """Precompute every user's lookup answer as of now — the view
        degraded lookups serve while the breaker is open."""
        self._stale_view = {user: self.state.lookup(user)
                            for user in self.state.users()}
        self._stale_applied = self.state.applied

    def _stale_lookup(self, user: str, *, deadline_missed: bool):
        stale_by = self.state.applied - self._stale_applied
        entry = self._stale_view.get(user)
        if entry is None:
            return LookupResult(user=user, found=False, degraded=True,
                                deadline_missed=deadline_missed,
                                stale_by_visits=stale_by)
        found, identities, anonymity = entry
        return LookupResult(user=user, found=found,
                            identities=dict(identities),
                            anonymity_sets=dict(anonymity), degraded=True,
                            deadline_missed=deadline_missed,
                            stale_by_visits=stale_by)

    def _on_breaker(self, to_state: str) -> None:
        self._recorder.event(_BREAKER_EVENTS[to_state])

    # -- introspection ---------------------------------------------------------
    def state_bytes(self) -> bytes:
        """Canonical identity-state bytes — the chaos tests' comparison
        surface."""
        return self.state.canonical_bytes()

    def summary(self) -> dict:
        return {
            "vectors": list(self.vectors),
            "applied": self.state.applied,
            "users": len(self.state.contexts),
            "components": {v: self.state.collators[v].component_count
                           for v in self.vectors},
            "counts": dict(self.counts),
            "detections": dict(self.state.detections),
            "breaker": {"state": self.breaker.state,
                        "trips": self.breaker.trips},
            "recovery": dict(self.recovery),
        }
