"""Incremental fingerprint collation: the online twin of
``repro.analysis.collation``.

The batch collator rebuilds the full fingerprint graph per run — fine
for a study, unusable for a service where visits arrive one at a time.
``IncrementalCollator`` maintains the same graph *incrementally*: each
arriving (user, eFP) observation interns the eFP (ids in arrival order),
and unions it with the user's first eFP — amortized near-O(α) per
arrival, no rebuild, ever.

Equivalence to the batch path is exact, not approximate:

* **Same edges.** The batch collator builds a star from each user row's
  first eFP to every later one; observing a series incrementally unions
  each new eFP with that user's first eFP — the identical edge set.
* **Same canonical roots.** Unions keep the minimum member id as the
  root (batch ``component_roots`` labels every node with that same
  minimum), so a component's representative is its minimum interned eFP
  id regardless of arrival order — this is the *live* identity the
  service serves, stable under any interleaving of the same visits.
* **Same dense labels.** ``user_component_ids`` densifies resolved
  roots in ascending order, exactly ``np.unique(roots)`` in the batch
  path. Feed the collator a dataset's visits in canonical order (user
  by user, iteration by iteration) and the final assignment is
  byte-identical to ``collate_vector`` on that dataset — pinned by
  test.

State is serializable and *canonical*: ``state_dict`` resolves every
parent to its root before dumping, so the bytes are a pure function of
the observation stream — independent of find-history (path halving
mutates parents lazily) and therefore byte-stable across
snapshot/replay cycles.
"""
from __future__ import annotations


class IncrementalCollator:
    """One vector's online fingerprint graph.

    Not thread-safe; the service serializes all mutations through its
    single consumer task.
    """

    __slots__ = ("vector", "_ids", "_labels", "_parent", "_user_first",
                 "_user_order", "_root_users")

    def __init__(self, vector: str):
        self.vector = vector
        self._ids: dict[str, int] = {}      # eFP string -> interned id
        self._labels: list[str] = []        # interned id -> eFP string
        self._parent: list[int] = []        # union-find forest
        self._user_first: dict[str, int] = {}   # user -> first eFP id
        self._user_order: list[str] = []        # users in arrival order
        self._root_users: dict[int, int] = {}   # root -> distinct users

    # -- union-find core -----------------------------------------------------
    def _find(self, i: int) -> int:
        parent = self._parent
        while parent[i] != i:
            parent[i] = parent[parent[i]]  # path halving
            i = parent[i]
        return i

    def _union(self, a: int, b: int) -> None:
        """Merge with the *minimum* id as root (the batch collator's
        canonicalization), folding the loser's user count into the
        winner's."""
        ra, rb = self._find(a), self._find(b)
        if ra == rb:
            return
        if rb < ra:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._root_users[ra] = (self._root_users.get(ra, 0)
                                + self._root_users.pop(rb, 0))

    def _intern(self, efp: str) -> int:
        code = self._ids.get(efp)
        if code is None:
            code = self._ids[efp] = len(self._labels)
            self._labels.append(efp)
            self._parent.append(code)
        return code

    # -- the online surface --------------------------------------------------
    def observe(self, user: str, efp: str) -> int:
        """Fold one observation in; returns the user's current canonical
        identity (their component's minimum interned eFP id)."""
        code = self._intern(efp)
        first = self._user_first.get(user)
        if first is None:
            self._user_first[user] = code
            self._user_order.append(user)
            root = self._find(code)
            self._root_users[root] = self._root_users.get(root, 0) + 1
            return root
        self._union(first, code)
        return self._find(first)

    def identity(self, user: str) -> int | None:
        """The user's canonical collated identity, or None if unseen."""
        first = self._user_first.get(user)
        return None if first is None else self._find(first)

    def anonymity_set_size(self, user: str) -> int:
        """Distinct users sharing this user's identity (0 if unseen)."""
        first = self._user_first.get(user)
        if first is None:
            return 0
        return self._root_users[self._find(first)]

    # -- shape ---------------------------------------------------------------
    @property
    def user_count(self) -> int:
        return len(self._user_order)

    @property
    def efp_count(self) -> int:
        return len(self._labels)

    @property
    def component_count(self) -> int:
        return len(self._root_users)

    def users(self) -> list[str]:
        return list(self._user_order)

    # -- batch-equivalent views ----------------------------------------------
    def _dense_labels(self) -> dict[int, int]:
        """root -> dense component label, ascending-root order — the
        exact densification ``np.unique(roots, return_inverse=True)``
        applies in the batch path."""
        roots = sorted({self._find(i) for i in range(len(self._parent))})
        return {root: label for label, root in enumerate(roots)}

    def user_component_ids(self) -> dict[str, int]:
        """``user -> dense collated id`` — comparable field-for-field
        (and, JSON-dumped, byte-for-byte) with the batch
        ``VectorCollation.user_component_ids()`` when the stream arrived
        in the dataset's canonical order."""
        dense = self._dense_labels()
        return {user: dense[self._find(self._user_first[user])]
                for user in self._user_order}

    def efp_component_ids(self) -> list[int]:
        """Dense component label per interned eFP id — the batch
        ``efp_components`` array as a list."""
        dense = self._dense_labels()
        return [dense[self._find(i)] for i in range(len(self._parent))]

    # -- canonical serialization ---------------------------------------------
    def state_dict(self) -> dict:
        """Deterministic snapshot: labels in intern order, parents fully
        resolved to roots (find-history erased), users in arrival order.
        A pure function of the observation stream."""
        return {
            "vector": self.vector,
            "labels": list(self._labels),
            "roots": [self._find(i) for i in range(len(self._parent))],
            "users": [[user, self._user_first[user]]
                      for user in self._user_order],
        }

    @classmethod
    def from_state(cls, state: dict) -> "IncrementalCollator":
        collator = cls(state["vector"])
        for code, label in enumerate(state["labels"]):
            collator._ids[label] = code
            collator._labels.append(label)
        collator._parent = [int(r) for r in state["roots"]]
        for user, first in state["users"]:
            first = int(first)
            collator._user_first[user] = first
            collator._user_order.append(user)
            root = collator._find(first)
            collator._root_users[root] = collator._root_users.get(root, 0) + 1
        return collator
