"""Graph ordering: topological sort with cycle detection (Kahn) — plus
the node labels the per-node profiler attributes render time to."""
from __future__ import annotations


def node_label(node) -> str:
    """Profiler attribution label: the class name minus the Node suffix
    (OscillatorNode -> "Oscillator"), matching hot-node report rows."""
    name = type(node).__name__
    return name[:-4] if name.endswith("Node") else name


def topological_order(nodes) -> list:
    """Order nodes so every source renders before its destinations."""
    nodes = list(nodes)
    indegree = {node: len(node.sources()) for node in nodes}
    dependents: dict = {node: [] for node in nodes}
    for node in nodes:
        for src in node.sources():
            dependents[src].append(node)

    ready = [node for node in nodes if indegree[node] == 0]
    order = []
    while ready:
        node = ready.pop()
        order.append(node)
        for dep in dependents[node]:
            indegree[dep] -= 1
            if indegree[dep] == 0:
                ready.append(dep)
    if len(order) != len(nodes):
        raise ValueError(
            "audio graph contains a cycle (delay-free loops are not renderable; "
            "DelayNode-legalized cycles arrive in a later engine version)"
        )
    return order
