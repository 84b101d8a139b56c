"""Fingerprint-graph collation (paper §4).

The paper's measurement contribution: raw per-iteration audio
fingerprints (eFPs) are *fickle* — one browser leaves several distinct
hashes across 30 iterations — yet they are still linkable, because the
same machine keeps revisiting the same eFPs. Collation makes that
linkability explicit with a graph:

  nodes  the distinct eFPs observed for one vector, and
  edges  link two eFPs that were co-observed inside a single user's
         iteration series (a browser emitted both, so they belong to
         the same underlying device state).

Connected components of this graph are the *collated fingerprints*: a
user's entire series — however fickle — lands in exactly one component,
and two users share a component exactly when their eFP sets overlap
(directly or transitively through other users). Components therefore
both stabilize fickle series and define the anonymity sets the entropy
analysis measures.

Implementation notes (scales past the paper's 2093 x 30 x 7 grid):

- The whole computation runs on an ``(users, iterations)`` int64 grid
  of interned eFP ids (``StudyDataset.intern``). A dataset the study
  driver built already holds that grid; ``intern`` walks eFP strings
  only for a dataset built from string series (loaded from JSON or
  reassembled from shards), once per vector.
- Per-series edges are built vectorized as a star from each row's first
  eFP to every other eFP in the row — connectivity-equivalent to the
  full per-series clique at O(iterations) instead of O(iterations²)
  edges — then deduplicated grid-wide with one ``np.unique`` over a
  1-D int64 key per edge (``lo * n + hi``), which sorts the edges in
  the same (lo, hi) order as a row-wise unique at a fraction of its
  cost.
- Components come from ``component_roots``: array label propagation
  over the deduplicated edges, whole-array NumPy passes with no
  per-edge Python loop.
- Every node's root is the *minimum interned eFP id* in its
  component, so component identity is independent of edge order, and
  dense component labels follow interning (first-appearance) order —
  the same dataset always collates to byte-identical labels.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..obs import NULL_RECORDER


def component_roots(size: int, edges) -> np.ndarray:
    """Label every node ``0..size-1`` with its component's minimum id.

    ``edges`` is any ``(n, 2)`` array of node pairs; duplicates and
    self-loops are harmless. Array label propagation: labels start at
    ``arange(size)``; each round lowers the larger label of every edge
    whose two ends disagree to the smaller one (``np.minimum.at``, so
    conflicting writes keep the minimum), then pointer-jumps
    (``labels = labels[labels]``) to a fixed point, so every node
    carries its root again. It stops once both ends of every edge carry
    the same label. Labels only fall and never leave their component,
    so the loop ends, and at the fixed point each component's nodes all
    carry the one label its minimum id has kept: the component minimum,
    whatever order the edges come in.
    """
    labels = np.arange(size, dtype=np.int64)
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    a, b = edges[:, 0], edges[:, 1]
    while True:
        la, lb = labels[a], labels[b]
        split = la != lb
        if not split.any():
            return labels
        la, lb = la[split], lb[split]
        np.minimum.at(labels, np.maximum(la, lb), np.minimum(la, lb))
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped


def series_edges(codes: np.ndarray) -> np.ndarray:
    """Deduplicated co-observation edges for an interned series grid.

    Each row contributes a star from its first eFP to every later eFP —
    enough for connectivity, linear in the row length. Self-loops are
    dropped; undirected duplicates collapse via (lo, hi) normalization.
    The edges come back sorted by (lo, hi), in the codes' dtype: the
    dedup sorts the 1-D key ``lo * n + hi`` (n = the largest id + 1,
    so the key orders pairs exactly as ``np.unique(pairs, axis=0)``
    would, far faster; interned ids are dense, so it fits int64).
    """
    if codes.shape[1] < 2:
        return np.empty((0, 2), dtype=np.int64)
    first = np.broadcast_to(codes[:, :1], (codes.shape[0], codes.shape[1] - 1))
    u = first.ravel()
    v = codes[:, 1:].ravel()
    mask = u != v
    if not mask.any():
        return np.empty((0, 2), dtype=np.int64)
    u, v = u[mask], v[mask]
    lo = np.minimum(u, v).astype(np.int64)
    hi = np.maximum(u, v).astype(np.int64)
    n = int(hi.max()) + 1
    keys = np.unique(lo * n + hi)
    return np.stack(np.divmod(keys, n), axis=1).astype(codes.dtype,
                                                        copy=False)


@dataclass(frozen=True, eq=False)
class VectorCollation:
    """One vector's collated fingerprint graph, fully resolved.

    All arrays follow the dataset's canonical orders: ``codes`` rows and
    ``user_components`` follow ``user_ids``; ``efp_components`` follows
    the interned eFP ids behind ``labels``; ``edges`` holds the
    deduplicated co-observation edges as interned-id pairs
    (``series_edges``). Component labels are dense ints in
    first-appearance order of each component's smallest eFP.
    """

    vector: str
    user_ids: list[str] = field(repr=False)
    labels: list[str] = field(repr=False)
    codes: np.ndarray = field(repr=False)            # (users, iterations)
    efp_components: np.ndarray = field(repr=False)   # (n_efps,)
    user_components: np.ndarray = field(repr=False)  # (users,)
    edges: np.ndarray = field(repr=False)            # (n_edges, 2)

    @property
    def efp_count(self) -> int:
        return len(self.labels)

    @property
    def edge_count(self) -> int:
        return int(self.edges.shape[0])

    @property
    def component_count(self) -> int:
        return int(self.efp_components.max()) + 1 if self.efp_count else 0

    def user_component_ids(self) -> dict[str, int]:
        """``user_id -> collated fingerprint id`` (exactly one per user)."""
        return {uid: int(c)
                for uid, c in zip(self.user_ids, self.user_components)}

    def raw_distinct_per_user(self) -> np.ndarray:
        """Distinct raw eFPs per user row (Table 1's quantity), vectorized."""
        s = np.sort(self.codes, axis=1)
        return 1 + (s[:, 1:] != s[:, :-1]).sum(axis=1)

    def collated_distinct_per_user(self) -> np.ndarray:
        """Distinct collated ids per user row — 1 for every user, by
        construction; computed (not assumed) so tests and the report
        validator can verify the collapse actually happened."""
        comp = self.efp_components[self.codes]
        s = np.sort(comp, axis=1)
        return 1 + (s[:, 1:] != s[:, :-1]).sum(axis=1)


def collate_vector(dataset, vector: str, recorder=NULL_RECORDER) -> VectorCollation:
    """Collate one vector's series grid into stable fingerprint ids."""
    with recorder.span("collate", vector=vector):
        codes, labels, user_ids = dataset.intern(vector)
        edges = series_edges(codes)
        roots = component_roots(len(labels), edges)
        # roots are already canonical (min eFP id per component); densify
        # to 0..C-1 in ascending-root order == first-appearance order
        _, efp_components = np.unique(roots, return_inverse=True)
        user_components = (efp_components[codes[:, 0]] if codes.size
                           else np.empty(len(user_ids), dtype=np.int64))
        recorder.count("collation.efps", len(labels))
        recorder.count("collation.edges", int(edges.shape[0]))
        recorder.count("collation.components",
                       int(efp_components.max()) + 1 if len(labels) else 0)
    return VectorCollation(
        vector=vector,
        user_ids=user_ids,
        labels=labels,
        codes=codes,
        efp_components=efp_components,
        user_components=user_components,
        edges=edges,
    )


def collate(dataset, vectors=None, recorder=NULL_RECORDER) -> dict[str, VectorCollation]:
    """Collate every requested vector; returns ``{vector: collation}``."""
    names = tuple(vectors) if vectors is not None else tuple(dataset.vectors)
    return {name: collate_vector(dataset, name, recorder=recorder)
            for name in names}


def combined_user_ids(collations: dict[str, VectorCollation],
                      vectors=None) -> list[tuple[int, ...]]:
    """Per-user cross-vector collated id tuples (the "Combined" row).

    Rows follow the shared canonical user order; every collation must
    come from the same dataset.
    """
    names = tuple(vectors) if vectors is not None else tuple(collations)
    cols = [collations[name] for name in names]
    base = cols[0].user_ids
    for col in cols[1:]:
        if col.user_ids != base:
            raise ValueError(
                f"collation for {col.vector!r} has a different user order")
    stacked = np.stack([col.user_components for col in cols], axis=1)
    return [tuple(row) for row in stacked.tolist()]
