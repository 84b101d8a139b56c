"""StudyDataset: the per-user, per-vector, per-iteration eFP series."""
from __future__ import annotations

import json

import numpy as np

from ..io import atomic_write_chunks
from ..schema import STRING, STUDY, Check, each
from ..schema import problems as schema_problems

#: one user's eFP series — a single leaf check, since a paper-scale
#: dataset holds tens of thousands of them
_EFPS = Check(lambda v: isinstance(v, list)
              and all(isinstance(efp, str) for efp in v),
              "an array of strings")

_SCHEMA = {
    "meta": STUDY,
    "users": [{"id": STRING, "os": STRING}],
    "series": each(each(_EFPS)),
}


class StudyDataset:
    """A study's users and their eFP series, held in one of two forms.

    ``series[vector][user_id]`` is the list of eFP strings per iteration
    (how datasets load from JSON and reassemble from shards);
    ``interned[vector]`` is ``(codes, labels)``, an ``(n_users,
    iterations)`` int64 grid of eFP ids plus the eFP string behind each
    id (how the study driver builds them). A dataset keeps the form it
    was built with and derives the other on first use, so analysis of a
    driver-built dataset never walks strings and only callers that
    serialize pay for the string series. Both forms describe the same
    data: ``to_dict``, ``save`` and ``==`` do not depend on which one a
    dataset was built with.
    """

    def __init__(self, seed: int, user_count: int, iterations: int,
                 vectors: tuple[str, ...], users: list[dict] | None = None,
                 series: dict[str, dict[str, list[str]]] | None = None,
                 interned: dict[str, tuple[np.ndarray, list[str]]]
                 | None = None):
        self.seed = seed
        self.user_count = user_count
        self.iterations = iterations
        self.vectors = vectors
        self.users = users if users is not None else []
        if interned is None:
            self._series = series if series is not None else {}
            self._interned = {}
        elif series is None:
            self._series = None
            self._interned = dict(interned)
            for codes, _ in self._interned.values():
                codes.setflags(write=False)
        else:
            raise ValueError("pass series or interned, not both")

    def __repr__(self) -> str:
        return (f"StudyDataset(seed={self.seed!r}, "
                f"user_count={self.user_count!r}, "
                f"iterations={self.iterations!r}, vectors={self.vectors!r})")

    @property
    def series(self) -> dict[str, dict[str, list[str]]]:
        """``series[vector][user_id] = [eFP per iteration]``."""
        if self._series is None:
            user_ids = self.user_ids()
            self._series = {
                vector: dict(zip(user_ids,
                                 np.array(labels, dtype=object)[codes]
                                 .tolist()))
                for vector, (codes, labels) in self._interned.items()}
        return self._series

    # -- analysis helpers ---------------------------------------------------
    def distinct_counts(self, vector: str) -> dict[str, int]:
        """Per-user number of distinct eFPs (the Table 1 quantity)."""
        return {uid: len(set(efps)) for uid, efps in self.series[vector].items()}

    def stack_keys(self) -> list[str]:
        return [u["stack_key"] for u in self.users]

    def user_ids(self) -> list[str]:
        """User ids in canonical (stored) order — the row order every
        per-user array in the analysis layer follows."""
        return [u["id"] for u in self.users]

    def iter_user_series(self, vector: str):
        """Yield ``(user_id, [eFP per iteration])`` in canonical user order."""
        series = self.series[vector]
        for uid in self.user_ids():
            yield uid, series[uid]

    def intern(self, vector: str) -> tuple[np.ndarray, list[str], list[str]]:
        """Integer-intern one vector's series for vectorized analysis.

        Returns ``(codes, labels, user_ids)``: ``codes`` is a read-only
        ``(n_users, iterations)`` int64 grid of interned eFP ids,
        ``labels[i]`` is the eFP string behind id ``i`` (ids assigned in
        first-appearance order scanning users canonically), and
        ``user_ids`` names the rows. The collation layer operates on
        this grid only. A driver-built dataset already holds it; a
        dataset built from string series walks them once per vector, on
        first use.
        """
        user_ids = self.user_ids()
        if vector not in self._interned:
            table: dict[str, int] = {}
            codes = np.empty((len(user_ids), self.iterations), dtype=np.int64)
            series = self.series[vector]
            for row, uid in enumerate(user_ids):
                for col, efp in enumerate(series[uid]):
                    code = table.get(efp)
                    if code is None:
                        code = table[efp] = len(table)
                    codes[row, col] = code
            codes.setflags(write=False)
            self._interned[vector] = (codes, list(table))
        codes, labels = self._interned[vector]
        return codes, list(labels), user_ids

    # -- (de)serialization --------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "meta": {
                "seed": self.seed,
                "user_count": self.user_count,
                "iterations": self.iterations,
                "vectors": list(self.vectors),
            },
            "users": self.users,
            "series": self.series,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "StudyDataset":
        """Build a dataset from a JSON payload, validating its integrity.

        The analysis layer trusts loaded datasets completely, so an
        inconsistent payload must fail *here*, naming the offending
        field, instead of producing silently wrong metrics downstream.
        """
        problems = schema_problems(payload, _SCHEMA)
        if problems:
            raise ValueError(problems[0])
        meta, users, series = payload["meta"], payload["users"], payload["series"]
        iterations, vectors = meta["iterations"], meta["vectors"]
        if meta["user_count"] != len(users):
            raise ValueError(
                f"meta.user_count is {meta['user_count']} but users has "
                f"{len(users)} entries")
        if not vectors:
            raise ValueError("meta.vectors must be non-empty")
        for vector in series:
            if vector not in vectors:
                raise ValueError(
                    f"series contains vector {vector!r} absent from meta.vectors")
        for vector in vectors:
            if vector not in series:
                raise ValueError(f"meta.vectors names {vector!r} but series has "
                                 "no entry for it")

        ids = {user["id"] for user in users}
        if len(ids) != len(users):
            raise ValueError("users contains duplicate ids")
        for vector, per_user in series.items():
            if per_user.keys() != ids:
                extra = sorted(per_user.keys() - ids)
                missing = sorted(ids - per_user.keys())
                raise ValueError(
                    f"series[{vector!r}] users do not match the users list "
                    f"(unknown: {extra[:3]}, missing: {missing[:3]})")
            for uid, efps in per_user.items():
                if len(efps) != iterations:
                    raise ValueError(
                        f"series[{vector!r}][{uid!r}] has {len(efps)} "
                        f"iterations, expected {iterations}")

        return cls(
            seed=meta["seed"],
            user_count=meta["user_count"],
            iterations=iterations,
            vectors=tuple(vectors),
            users=users,
            series=series,
        )

    def _dump_chunks(self):
        """Stream the ``to_dict()`` JSON encoding chunk by chunk.

        Byte-identical to ``json.dumps(self.to_dict()) + "\\n"`` (pinned
        by tests), but the peak working set is one user's series instead
        of the whole document — ``save`` stays flat in memory no matter
        how many users the dataset holds.
        """
        meta = {"seed": self.seed, "user_count": self.user_count,
                "iterations": self.iterations, "vectors": list(self.vectors)}
        yield '{"meta": ' + json.dumps(meta) + ', "users": ['
        for i, user in enumerate(self.users):
            yield (", " if i else "") + json.dumps(user)
        yield '], "series": {'
        for v, vector in enumerate(self.series):
            yield (", " if v else "") + json.dumps(vector) + ": {"
            per_user = self.series[vector]
            for u, uid in enumerate(per_user):
                yield (", " if u else "") + json.dumps(uid) + ": " \
                    + json.dumps(per_user[uid])
            yield "}"
        yield "}}\n"

    def save(self, path: str) -> None:
        """Crash-safely write the dataset, streaming one user at a time
        through the shared atomic chunk writer (same bytes as a
        whole-document dump, without ever materializing it)."""
        atomic_write_chunks(path, self._dump_chunks())

    @classmethod
    def load(cls, path: str) -> "StudyDataset":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def __eq__(self, other) -> bool:
        if not isinstance(other, StudyDataset):
            return NotImplemented
        return self.to_dict() == other.to_dict()
