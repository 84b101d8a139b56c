"""Opt-in per-node render profiling, wired through a contextvar.

The webaudio engine is the hot path: ~40 render quanta x ~6 nodes per
eFP, at hundreds of thousands of eFPs per study. Rather than thread a
profiler argument through every vector -> context -> node call chain,
the engine asks ``current_node_profiler()`` once per render, and each
render loop reads the clock around a node's step only when a profiler
is active. The arithmetic is the same either way, so rendered bytes
never depend on profiling.

Activation is scoped: ``with profile_nodes() as prof:`` installs a fresh
accumulator for the dynamic extent of the block (contextvars keep this
correct inside pool workers and any future async drivers). The
accumulator is two plain dicts so it pickles across the process-pool
boundary for free.
"""
from __future__ import annotations

import contextvars
from contextlib import contextmanager


class NodeProfiler:
    """Accumulates CPU seconds and call counts per node label. The
    engine times each step with ``time.thread_time``, so a worker's
    time spent preempted is not charged to the node it interrupted."""

    __slots__ = ("seconds", "calls")

    def __init__(self):
        self.seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}

    def add(self, label: str, elapsed_s: float) -> None:
        self.seconds[label] = self.seconds.get(label, 0.0) + elapsed_s
        self.calls[label] = self.calls.get(label, 0) + 1


_ACTIVE: contextvars.ContextVar[NodeProfiler | None] = contextvars.ContextVar(
    "repro_obs_node_profiler", default=None)


def current_node_profiler() -> NodeProfiler | None:
    """The profiler active in this context, or None (profiling off)."""
    return _ACTIVE.get()


@contextmanager
def profile_nodes():
    """Activate per-node profiling for the block; yields the accumulator."""
    profiler = NodeProfiler()
    token = _ACTIVE.set(profiler)
    try:
        yield profiler
    finally:
        _ACTIVE.reset(token)
