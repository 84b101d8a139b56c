"""RenderCache: the equivalence-class render cache.

Keys are ``vector|stack.cache_key()|jitter_path`` — the complete identity
of a render's numeric output (ENGINE_VERSION rides inside the stack key,
so any DSP change invalidates everything at once). Values are eFP digest
strings, so the cache is tiny even at paper scale: at seed 2021 the
2093x30 study needs 2,226 entries for the 7 audio vectors and 3,404 for
the full 11-vector battery.

It is an in-memory LRU (OrderedDict move-to-end) and reads nothing from
outside the program; crash-safe progress across runs is the study
checkpoint's job (``run_study(checkpoint_path=...)``).
"""
from __future__ import annotations

from collections import OrderedDict


class RenderCache:
    def __init__(self, capacity: int = 100_000, *, disabled: bool = False):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.disabled = disabled
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._recorder = None
        self._store: OrderedDict[str, str] = OrderedDict()

    @staticmethod
    def make_key(vector_name: str, stack_key: str, jitter_path: str) -> str:
        return f"{vector_name}|{stack_key}|{jitter_path}"

    # -- observability ------------------------------------------------------
    def attach_recorder(self, recorder) -> None:
        """Bind an enabled ``repro.obs`` recorder so cache misses land in
        the study event log (hits stay silent, they are the noise floor).
        A disabled recorder binds to nothing: zero calls on any path.
        """
        self._recorder = recorder if getattr(recorder, "enabled", False) \
            else None

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
        }

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
