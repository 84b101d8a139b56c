"""Deterministic fault injection for the supervised render pipeline.

A ``FaultPlan`` is a seed-deterministic description of *which* render
class keys misbehave and *how*: worker crash (``os._exit`` mid-render),
hang (sleep past the supervisor's deadline), corrupted return value,
render delay (chaos pacing) — plus the service
fault points (``repro.service``): a WAL append torn mid-record, a
snapshot writer crashing mid-write, and a slow ingest consumer. Plans are
env-gated: ``run_study`` and its pool workers consult ``$REPRO_FAULTS``
(a path to a saved plan) once per render job, so production runs pay one
env lookup per job and nothing else, while chaos tests flip faults on
without touching any call site.

Determinism has two halves:

* **Selection** is a pure function of ``(plan seed, fault kind, key)`` —
  an 8-byte SHA-256 draw compared against the configured fraction (or an
  explicit key list). The same plan always picks the same classes, at
  any worker count and in any execution order.
* **Occurrence counting** uses a filesystem ledger next to the plan
  file: firing occurrence ``i`` of a fault atomically claims
  ``<digest>.<i>`` with ``O_CREAT|O_EXCL``, which is race-free across
  pool workers and — crucially — survives the very crash it triggers, so
  "crash the first attempt of class X" fires exactly once no matter how
  the retry lands. ``times=None`` means "always" (permanent poison).

Crash faults fire for real (``os._exit``) only in pool workers; in the
supervising process (inline rendering) they degrade to
``SimulatedWorkerCrash`` so the study itself survives to retry.
"""
from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field

from ..io import atomic_write_json
from .errors import SimulatedWorkerCrash

ENV_VAR = "REPRO_FAULTS"

FAULT_KINDS = ("crash", "hang", "corrupt", "delay",
               # service fault points (repro.service): a WAL append torn
               # mid-record, a snapshot writer crashing mid-write, and a
               # consumer that drains its ingest queue too slowly
               "torn_wal", "crashed_snapshot", "slow_consumer")

#: the selection keys the service fault points fire under — singleton
#: subsystems, so plans target them with ``keys=`` rather than a fraction
WAL_KEY = "wal"
SNAPSHOT_KEY = "snapshot"
CONSUMER_KEY = "consumer"

#: what a corrupted worker return looks like — deliberately not a valid
#: 32-hex eFP digest, so result validation catches it
CORRUPT_EFP = "corrupted-return"


@dataclass(frozen=True)
class Fault:
    kind: str                      # one of FAULT_KINDS
    fraction: float = 0.0          # seed-deterministic share of keys hit
    keys: tuple[str, ...] = ()     # ... or an explicit key list
    times: int | None = 1          # occurrences per key; None = always
    seconds: float = 0.0           # sleep length for hang/delay

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} "
                             f"(expected one of {FAULT_KINDS})")
        if self.times is not None and self.times < 1:
            raise ValueError(f"times must be >= 1 or None, got {self.times}")

    def to_dict(self) -> dict:
        return {"kind": self.kind, "fraction": self.fraction,
                "keys": list(self.keys), "times": self.times,
                "seconds": self.seconds}

    @classmethod
    def from_dict(cls, payload: dict) -> "Fault":
        return cls(kind=payload["kind"],
                   fraction=float(payload.get("fraction", 0.0)),
                   keys=tuple(payload.get("keys", ())),
                   times=payload.get("times"),
                   seconds=float(payload.get("seconds", 0.0)))


@dataclass
class FaultPlan:
    seed: int = 0
    faults: tuple[Fault, ...] = ()
    ledger_dir: str | None = None
    parent_pid: int | None = None
    path: str | None = field(default=None, compare=False)

    # -- persistence ---------------------------------------------------------
    def save(self, path: str) -> str:
        """Write the plan (and create its occurrence ledger) so workers
        can load it through ``$REPRO_FAULTS``. Records the saving pid as
        the supervising parent — crash faults in that pid are simulated,
        in any other pid they are real ``os._exit`` deaths."""
        ledger = self.ledger_dir or path + ".ledger"
        os.makedirs(ledger, exist_ok=True)
        self.ledger_dir = ledger
        self.parent_pid = os.getpid()
        self.path = path
        atomic_write_json(path, {
            "format": 1, "seed": self.seed, "parent_pid": self.parent_pid,
            "ledger_dir": ledger,
            "faults": [f.to_dict() for f in self.faults],
        })
        return path

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        return cls(seed=int(payload["seed"]),
                   faults=tuple(Fault.from_dict(f) for f in payload["faults"]),
                   ledger_dir=payload["ledger_dir"],
                   parent_pid=payload.get("parent_pid"),
                   path=path)

    # -- selection / occurrence ledger ---------------------------------------
    def _selected(self, fault: Fault, key: str) -> bool:
        if key in fault.keys:
            return True
        if fault.fraction <= 0.0:
            return False
        digest = hashlib.sha256(
            f"{self.seed}|{fault.kind}|{key}".encode()).digest()
        return int.from_bytes(digest[:8], "big") / 2**64 < fault.fraction

    def _claim(self, index: int, fault: Fault, key: str) -> bool:
        """Atomically claim the next unfired occurrence of (fault, key);
        False once the fault has fired ``times`` times already."""
        if fault.times is None:
            return True
        digest = hashlib.sha256(f"{index}|{key}".encode()).hexdigest()[:24]
        for occurrence in range(fault.times):
            marker = os.path.join(self.ledger_dir, f"{digest}.{occurrence}")
            try:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
                return True
            except FileExistsError:
                continue
        return False

    def _due(self, kinds, key: str):
        """The faults of ``kinds`` firing on this occurrence of ``key``,
        lazily: each is selected for ``key`` and has an unfired
        occurrence, which yielding it claims."""
        return (fault for index, fault in enumerate(self.faults)
                if fault.kind in kinds and self._selected(fault, key)
                and self._claim(index, fault, key))

    # -- firing --------------------------------------------------------------
    _RENDER_KINDS = frozenset({"crash", "hang", "corrupt", "delay"})

    def fire_render_fault(self, key: str) -> bool:
        """Run crash/hang/delay faults for one render of ``key``; return
        True when the render's result must be corrupted."""
        corrupt = False
        for fault in self._due(self._RENDER_KINDS, key):
            if fault.kind in ("hang", "delay"):
                time.sleep(fault.seconds)
            elif fault.kind == "corrupt":
                corrupt = True
            elif fault.kind == "crash":
                if self.parent_pid is not None and os.getpid() == self.parent_pid:
                    raise SimulatedWorkerCrash(f"injected crash rendering {key}")
                os._exit(13)
        return corrupt

    # -- service fault points (repro.service) --------------------------------
    def fire_torn_wal(self, fh, line: str) -> bool:
        """If a torn-WAL fault is due, write a truncated fragment of
        ``line`` to the open WAL handle — exactly the bytes a SIGKILL
        landing mid-append would leave — and tell the caller to die
        instead of completing the append."""
        if not any(self._due({"torn_wal"}, WAL_KEY)):
            return False
        fh.write(line[:max(1, len(line) // 2)])
        fh.flush()
        return True

    def fire_crashed_snapshot(self, path: str, text: str) -> bool:
        """If a crashed-snapshot fault is due, write the first third of
        ``text`` over ``path`` in place — the invalid JSON a writer dying
        mid-write through a *naive* (non-atomic) writer leaves — and tell
        the caller to skip the real write."""
        if not any(self._due({"crashed_snapshot"}, SNAPSHOT_KEY)):
            return False
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text[:max(1, len(text) // 3)])
        return True

    def fire_slow_consumer(self) -> float:
        """Seconds the service's ingest consumer must stall before
        draining its next batch; 0.0 when no slow-consumer fault is due.
        The delay is returned (not slept here) so the async consumer can
        await it without blocking the event loop."""
        return sum((fault.seconds for fault in
                    self._due({"slow_consumer"}, CONSUMER_KEY)), 0.0)


# -- the env-gated hook (the only thing hot paths touch) ----------------------

_plan_cache: dict[str, FaultPlan] = {}


def active_plan() -> FaultPlan | None:
    """The plan named by ``$REPRO_FAULTS``, or None. Cached per path —
    pool workers load it once and reuse it for every render."""
    path = os.environ.get(ENV_VAR)
    if not path:
        return None
    plan = _plan_cache.get(path)
    if plan is None:
        plan = _plan_cache[path] = FaultPlan.load(path)
    return plan


def render_faults(keys) -> list[int]:
    """Hook called by the render workers once per job: fires each class
    key's render faults in order and returns the indices of the keys
    whose results the caller must corrupt (simulating a bad return)."""
    plan = active_plan()
    if plan is None:
        return []
    return [i for i, key in enumerate(keys) if plan.fire_render_fault(key)]


def torn_wal(fh, line: str) -> bool:
    """Hook called by the service WAL per append. True = a torn fragment
    was written and the caller must simulate its own death."""
    plan = active_plan()
    return plan.fire_torn_wal(fh, line) if plan is not None else False


def crashed_snapshot(path: str, text: str) -> bool:
    """Hook called by the service snapshot writer. True = a torn file was
    left at ``path`` and the real write must be skipped."""
    plan = active_plan()
    return plan.fire_crashed_snapshot(path, text) if plan is not None else False


def slow_consumer() -> float:
    """Hook called by the service ingest consumer per batch: seconds to
    stall before draining (0.0 = no fault due)."""
    plan = active_plan()
    return plan.fire_slow_consumer() if plan is not None else 0.0
