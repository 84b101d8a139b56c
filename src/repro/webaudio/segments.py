"""Graph segmentation for the fused whole-buffer render path.

The quantum loop pays its Python interpreter overhead ~40 times per
render (once per 128-frame block): topological dispatch, input mixing,
and a flurry of small NumPy calls per node. For the graphs the
fingerprinting vectors actually build — automation-free linear chains
like Oscillator→Compressor→Analyser→Gain→Destination — none of that
per-block structure is load-bearing: every node is either elementwise in
the frame axis or carries block-granular state it can manage internally
(the oscillator's phase wrap, the compressor's envelope).

``plan_segments`` partitions the topologically ordered graph into
*segments*: maximal runs of directly chained stateless nodes, with the
stateful Compressor/Analyser nodes as singleton segment boundaries. A
``FusedPlan`` renders each node over the ENTIRE buffer in one
``process_buffer`` call — one graph walk per render instead of one per
block — and attributes profiler time both per node (same labels as the
quantum loop, so hot-node reports stay comparable) and per segment
(``segment:`` labels, so reports show where fusion concentrates time).

Eligibility is deliberately conservative — the plan is refused (returns
``None``, quantum-loop fallback) when any of these hold:

- a node type has no whole-buffer kernel (``fusible`` is False);
- any ``AudioParam`` on any node carries automation events (fused
  kernels assume block-position-independent params);
- any node has fan-in or fan-out > 1 (multi-source mixing and shared
  outputs render correctly block-by-block; the fused path only claims
  the linear-chain case its bit-identity tests pin).

The fallback is silent and recorded on the context
(``render_path_used``), so callers and tests can observe the decision.
"""
from __future__ import annotations

from dataclasses import dataclass

from .graph import node_label, topological_order
from .param import AudioParam


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


def _automation_free(node) -> bool:
    return all(not param._events for param in vars(node).values()
               if isinstance(param, AudioParam))


def plan_segments(nodes, destination) -> FusedPlan | None:
    """Build the fused execution plan, or None if the graph is not fusible."""
    try:
        order = topological_order(nodes)
    except ValueError:
        return None  # cyclic graphs fail identically in the quantum loop

    fan_out: dict = {}
    for node in nodes:
        for port in node._inputs:
            for source in port:
                fan_out[source] = fan_out.get(source, 0) + 1
    for node in order:
        if not node.fusible:
            return None
        if not _automation_free(node):
            return None
        if len(node.sources()) > 1 or fan_out.get(node, 0) > 1:
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
