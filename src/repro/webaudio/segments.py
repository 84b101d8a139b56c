"""Graph segmentation for the fused whole-buffer render path.

The quantum loop pays its Python interpreter overhead ~40 times per
render (once per 128-frame block): topological dispatch, input mixing,
and a flurry of small NumPy calls per node. For the graphs the
fingerprinting vectors actually build — Oscillator→Compressor→Analyser→
Gain→Destination chains, the three-oscillator merger fan-in, the
frequency-ramp chirp — none of that per-block structure is
load-bearing: every node is either elementwise in the frame axis or
carries block-granular state it manages internally (the oscillator's
phase wrap and per-block automation walk, the compressor's envelope).

``plan_segments`` partitions the topologically ordered graph into
*segments*: maximal runs of directly chained stateless nodes, with the
stateful Compressor/Analyser nodes as singleton segment boundaries. A
``FusedPlan`` renders each node over the ENTIRE buffer in one
``process_buffer`` call — one graph walk per render instead of one per
block — and attributes profiler time both per node (same labels as the
quantum loop, so hot-node reports stay comparable) and per segment
(``segment:`` labels, so reports show where fusion concentrates time).

Any acyclic graph of fusible nodes plans fused: fan-in and fan-out mix
through the same ``mix_sources`` arithmetic as the quantum loop, and
``AudioParam`` automation is evaluated at the quantum loop's per-block
granularity where it matters. The plan is refused (returns ``None``,
quantum-loop fallback) only for a cycle, or for a node type with no
whole-buffer kernel (``fusible`` is False). The fallback is silent and
recorded on the context (``render_path_used``), so callers and tests
can observe the decision.
"""
from __future__ import annotations

from dataclasses import dataclass

from .graph import node_label, topological_order


@dataclass(frozen=True)
class Segment:
    """A maximal chain of nodes the fused path renders back to back."""

    nodes: tuple
    stateful: bool

    @property
    def label(self) -> str:
        return ">".join(node_label(node) for node in self.nodes)


@dataclass(frozen=True)
class FusedPlan:
    """The segmented, whole-buffer execution order for one graph."""

    order: tuple
    segments: tuple[Segment, ...]


def _is_stateful(node) -> bool:
    """Stateful nodes bound segments: their whole-buffer kernels manage
    cross-block state internally and must not be chained into a run."""
    from .analyser import AnalyserNode
    from .compressor import DynamicsCompressorNode
    return isinstance(node, (AnalyserNode, DynamicsCompressorNode))


def plan_segments(nodes, destination) -> FusedPlan | None:
    """Build the fused execution plan, or None if the graph is not fusible."""
    try:
        order = topological_order(nodes)
    except ValueError:
        return None  # cyclic graphs fail identically in the quantum loop

    if not all(node.fusible for node in order):
        return None

    segments: list[Segment] = []
    current: list = []
    for node in order:
        sources = node.sources()
        chained = bool(current and sources and sources[0] is current[-1])
        if _is_stateful(node):
            if current:
                segments.append(Segment(tuple(current), stateful=False))
                current = []
            segments.append(Segment((node,), stateful=True))
        elif chained:
            current.append(node)
        else:
            if current:
                segments.append(Segment(tuple(current), stateful=False))
            current = [node]
    if current:
        segments.append(Segment(tuple(current), stateful=False))
    return FusedPlan(order=tuple(order), segments=tuple(segments))
