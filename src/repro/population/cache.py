"""RenderCache: the equivalence-class render cache.

Keys are ``vector|stack.cache_key()|jitter_path`` — the complete identity
of a render's numeric output (ENGINE_VERSION rides inside the stack key,
so any DSP change invalidates everything at once). Values are eFP digest
strings, so the cache is tiny even at paper scale: at seed 2021 the
2093x30 study needs 2,226 entries for the 7 audio vectors and 3,404 for
the full 11-vector battery.

In-memory it is an LRU (OrderedDict move-to-end); optionally it persists
to a JSON file (``disk_path``) so repeated runs skip even the first
render of each class.
"""
from __future__ import annotations

import json
import os
import re
from collections import OrderedDict

from ..io import atomic_write_json
from ..webaudio import ENGINE_VERSION

#: the version component of a full cache key: ``vector|e<N>|engine|...``
_VERSION_PART = re.compile(r"^e\d+$")


def _stale_version(key: str) -> bool:
    """True when ``key`` carries an ENGINE_VERSION other than the current
    one. Only full ``vector|e<N>|...`` keys are judged — ad-hoc keys
    (tests, external users) have no version component and are never
    considered stale."""
    parts = key.split("|")
    return (len(parts) >= 2 and _VERSION_PART.match(parts[1]) is not None
            and parts[1] != f"e{ENGINE_VERSION}")


class RenderCache:
    def __init__(self, capacity: int = 100_000, disk_path: str | None = None,
                 disabled: bool = False):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.disk_path = disk_path
        self.disabled = disabled
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.disk_loads = 0
        self.corrupt_entries = 0
        self.stale_prunes = 0
        self._recorder = None
        self._store: OrderedDict[str, str] = OrderedDict()
        if disk_path and not disabled:
            self._load_disk()

    @staticmethod
    def make_key(vector_name: str, stack_key: str, jitter_path: str) -> str:
        return f"{vector_name}|{stack_key}|{jitter_path}"

    # -- observability ------------------------------------------------------
    def attach_recorder(self, recorder) -> None:
        """Bind an enabled ``repro.obs`` recorder so cache incidents land
        in the study event log (misses, disk loads, corruption
        quarantines, stale prunes — hits stay silent, they are the noise
        floor). Activity that predates the bind — the disk load performed
        in ``__init__`` — is emitted as aggregate catch-up events here.
        A disabled recorder binds to nothing: zero calls on any path.
        """
        self._recorder = recorder if getattr(recorder, "enabled", False) \
            else None
        if self._recorder is None:
            return
        if self.disk_loads:
            self._recorder.event("cache.disk_load", n=self.disk_loads)
        if self.corrupt_entries:
            self._recorder.event("cache.corrupt_quarantine",
                                 n=self.corrupt_entries)
        if self.stale_prunes:
            self._recorder.event("cache.stale_prune", n=self.stale_prunes)

    def detach_recorder(self) -> None:
        self._recorder = None

    # -- counter API --------------------------------------------------------
    # Every stats mutation goes through these, including the study driver's
    # disabled-cache baseline (which charges its per-item renders as misses
    # without probing), so `stats()` means the same thing on every path.
    def record_hit(self, n: int = 1) -> None:
        self.hits += n

    def record_miss(self, n: int = 1) -> None:
        self.misses += n
        if self._recorder is not None:
            self._recorder.event("cache.miss", n=n)

    def record_eviction(self, n: int = 1) -> None:
        self.evictions += n

    def record_disk_load(self, n: int = 1) -> None:
        self.disk_loads += n
        if self._recorder is not None:
            self._recorder.event("cache.disk_load", n=n)

    def record_corrupt_entry(self, n: int = 1) -> None:
        self.corrupt_entries += n
        if self._recorder is not None:
            self._recorder.event("cache.corrupt_quarantine", n=n)

    def record_stale_prune(self, n: int = 1) -> None:
        self.stale_prunes += n
        if self._recorder is not None:
            self._recorder.event("cache.stale_prune", n=n)

    # -- core ---------------------------------------------------------------
    def get(self, key: str) -> str | None:
        if self.disabled:
            self.record_miss()
            return None
        value = self._store.get(key)
        if value is None:
            self.record_miss()
            return None
        self._store.move_to_end(key)
        self.record_hit()
        return value

    def put(self, key: str, value: str) -> None:
        if self.disabled:
            return
        self._store[key] = value
        self._store.move_to_end(key)
        while len(self._store) > self.capacity:
            self._store.popitem(last=False)
            self.record_eviction()

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: str) -> bool:
        """Membership takes the same path as ``get``: it records a hit or
        miss and refreshes the entry's recency, so probing with ``in``
        can never silently diverge from the LRU/stats semantics reads
        have."""
        return self.get(key) is not None

    # -- stats --------------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "entries": len(self._store),
            "capacity": self.capacity,
            "disabled": self.disabled,
            "evictions": self.evictions,
            "disk_loads": self.disk_loads,
            "corrupt_entries": self.corrupt_entries,
            "stale_prunes": self.stale_prunes,
        }

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.disk_loads = 0
        self.corrupt_entries = 0
        self.stale_prunes = 0

    # -- disk persistence ---------------------------------------------------
    def _quarantine_disk(self) -> None:
        """Move an unreadable cache file aside as ``<path>.corrupt`` so
        the *next* persist starts clean instead of re-reading (and
        re-ignoring) the same broken bytes forever — and so operators can
        inspect what the crash left behind."""
        self.record_corrupt_entry()
        try:
            os.replace(self.disk_path, self.disk_path + ".corrupt")
        except OSError:
            pass  # best-effort: a cold cache is always a safe outcome

    def _load_disk(self) -> None:
        # a cache file is an optimization, never a dependency: anything
        # unreadable (truncated by a crash predating the atomic writer,
        # wrong shape, undecodable) is quarantined to ``*.corrupt`` and
        # the cache starts cold; per-entry damage skips just the entry
        try:
            with open(self.disk_path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except FileNotFoundError:
            return
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            self._quarantine_disk()
            return
        if not isinstance(payload, dict) \
                or not isinstance(payload.get("entries"), dict):
            self._quarantine_disk()
            return
        for key, value in payload["entries"].items():
            if not (isinstance(key, str) and isinstance(value, str)):
                self.record_corrupt_entry()
            elif _stale_version(key):
                # a bumped ENGINE_VERSION orphans the entry forever (no
                # future key can match it); dropping it here — and not
                # re-writing it on the next persist — keeps the cache file
                # from accumulating dead generations
                self.record_stale_prune()
            else:
                self._store[key] = value
                self.record_disk_load()

    def persist(self) -> None:
        """Crash-safely write the cache to disk (no-op without a disk path).

        Delegates to the shared ``repro.io`` atomic writer (temp file +
        fsync + ``os.replace``) — readers see either the complete old
        file or the complete new one, never a torn write, even if the
        process dies mid-persist.
        """
        if not self.disk_path or self.disabled:
            return
        atomic_write_json(self.disk_path,
                          {"format": 1, "entries": dict(self._store)})
