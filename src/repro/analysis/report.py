"""The analysis report: build, validate, render.

One deterministic JSON document per dataset: for every vector the
fingerprint-graph shape, raw diversity (per observation and per first
observation), collated diversity, and the stability collapse — plus the
cross-vector "Combined" section. ``python -m repro.analysis`` writes it;
``python -m repro.obs.report <path> --check`` schema-checks it (the obs
CLI dispatches on ``kind``); CI gates on both. Validation is the
``repro.schema`` shape below plus the invariants the shape cannot say:
vector keys match ``dataset.vectors``, anonymity sets partition the
population (``distribution_problems``, shared with the tables report),
and every user collapses to one collated id.

Determinism contract: the report is a pure function of the dataset.
Serialized with ``sort_keys`` and fixed float rounding, the same dataset
always produces byte-identical report files — across runs, across
worker counts used to *render* the dataset, across user orderings for
every entropy/anonymity value (see ``entropy`` module).
"""
from __future__ import annotations

import json

from ..obs import NULL_RECORDER
from ..schema import (COUNT, NUMBER, POSITIVE, STRING, STUDY, UNIT, each)
from ..schema import problems as schema_problems
from .collation import collate
from .entropy import combined_metrics, vector_metrics

ANALYSIS_KIND = "repro.analysis.report"
ANALYSIS_FORMAT = 1


def build_analysis_report(dataset, collations=None,
                          recorder=NULL_RECORDER) -> dict:
    """Collate (unless pre-collated) and assemble the report document."""
    if collations is None:
        collations = collate(dataset, recorder=recorder)
    vectors = {}
    for name in dataset.vectors:
        with recorder.span("entropy", vector=name):
            vectors[name] = vector_metrics(collations[name])
    with recorder.span("combine"):
        combined = combined_metrics(collations, dataset.vectors)
    return {
        "kind": ANALYSIS_KIND,
        "format": ANALYSIS_FORMAT,
        "dataset": {
            "seed": dataset.seed,
            "user_count": dataset.user_count,
            "iterations": dataset.iterations,
            "vectors": list(dataset.vectors),
        },
        "vectors": vectors,
        "combined": combined,
    }


def dumps_analysis_report(report: dict) -> str:
    """The canonical byte encoding (what the CLI writes and CI diffs)."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


# -- validation (the CI schema check) ----------------------------------------

#: one ``entropy.distribution`` block
DISTRIBUTION = {
    "count": COUNT, "distinct": COUNT, "unique_ids": COUNT,
    "entropy_bits": NUMBER, "normalized_entropy": UNIT,
    "unique_fraction": NUMBER,
    "anonymity_sets": {"max": COUNT, "sizes": each(POSITIVE)},
}

_SCHEMA = {
    "kind": ANALYSIS_KIND,
    "format": ANALYSIS_FORMAT,
    "dataset": STUDY,
    "vectors": each({
        "graph": {"efps": COUNT, "edges": COUNT, "components": COUNT},
        "raw": {"observations": DISTRIBUTION,
                "first_observation": DISTRIBUTION},
        "collated": {"per_user": DISTRIBUTION},
        "stability": {
            **dict.fromkeys(("users", "raw_stable_users", "raw_fickle_users",
                             "raw_max_distinct_efps",
                             "fickle_users_collapsed",
                             "collated_stable_users",
                             "collated_max_ids_per_user"), COUNT),
            "raw_mean_distinct_efps": NUMBER,
            "collated_stable_fraction": UNIT,
        },
    }),
    "combined": {"vectors": [STRING], "raw_first_observation": DISTRIBUTION,
                 "collated": DISTRIBUTION},
}


def distribution_problems(where: str, dist: dict) -> list[str]:
    """The cross-field checks of one shape-checked distribution block:
    its anonymity sets partition ``count`` users into ``distinct`` ids."""
    sizes = dist["anonymity_sets"]["sizes"]
    # a set is never larger than the population (also bounds int())
    limit = len(str(dist["count"]))
    if not all(size.isdecimal() and len(size) <= limit for size in sizes):
        return [f"{where}.anonymity_sets.sizes keys must be set sizes"]
    problems = []
    users = sum(int(size) * n for size, n in sizes.items())
    if users != dist["count"]:
        problems.append(f"{where}.anonymity_sets sizes cover {users} users, "
                        f"count says {dist['count']}")
    if sum(sizes.values()) != dist["distinct"]:
        problems.append(f"{where}.anonymity_sets has {sum(sizes.values())} "
                        f"sets, distinct says {dist['distinct']}")
    return problems


def validate_analysis_report(payload) -> list[str]:
    """Return the list of schema/integrity problems (empty == valid)."""
    problems = schema_problems(payload, _SCHEMA)
    if problems:
        return problems
    declared = payload["dataset"]["vectors"]
    vectors = payload["vectors"]
    if not declared:
        problems.append("dataset.vectors must be non-empty")
    elif sorted(vectors) != sorted(declared):
        problems.append("vectors keys do not match dataset.vectors")
    for name, section in vectors.items():
        where = f"vectors[{name!r}]"
        for part, key in (("raw", "observations"), ("raw", "first_observation"),
                          ("collated", "per_user")):
            problems += distribution_problems(f"{where}.{part}.{key}",
                                              section[part][key])
        stab = section["stability"]
        if stab["raw_stable_users"] + stab["raw_fickle_users"] != stab["users"]:
            problems.append(f"{where}.stability raw stable+fickle != users")
        # the collation invariant the paper's scheme guarantees: every
        # user — fickle or not — collapses to exactly one collated id
        if stab["collated_stable_users"] != stab["users"]:
            problems.append(
                f"{where}.stability: collated ids are not stable for "
                "every user (collation invariant violated)")
        if stab["fickle_users_collapsed"] != stab["raw_fickle_users"]:
            problems.append(
                f"{where}.stability: not every fickle user collapsed "
                "to one collated id")

    combined = payload["combined"]
    if declared and combined["vectors"] != declared:
        problems.append("combined.vectors does not match dataset.vectors")
    for key in ("raw_first_observation", "collated"):
        problems += distribution_problems(f"combined.{key}", combined[key])
    return problems


# -- human-readable rendering -------------------------------------------------

def render_analysis_report(payload: dict) -> str:
    """Render an analysis report as the paper-style diversity tables."""
    # deferred: importing obs.report at module scope would pre-load it
    # under `python -m repro.obs.report` and trip runpy's double-import
    # warning (obs/__init__ keeps it lazy for the same reason)
    from ..obs.report import _table

    out: list[str] = []
    dataset = payload.get("dataset", {})
    out.append("== analysis report ==")
    out.append("dataset: " + ", ".join(f"{k}={v}" for k, v in dataset.items()))

    rows = []
    sections = list(payload.get("vectors", {}).items())
    combined = payload.get("combined")
    for name, section in sections:
        graph = section["graph"]
        collated = section["collated"]["per_user"]
        raw = section["raw"]["first_observation"]
        rows.append([
            name, str(graph["efps"]), str(graph["edges"]),
            str(graph["components"]),
            f"{raw['entropy_bits']:.4f}",
            f"{collated['entropy_bits']:.4f}",
            f"{collated['normalized_entropy']:.4f}",
            str(collated["unique_ids"]),
            str(collated["anonymity_sets"]["max"]),
        ])
    if combined:
        rows.append([
            "combined", "-", "-",
            str(combined["collated"]["distinct"]),
            f"{combined['raw_first_observation']['entropy_bits']:.4f}",
            f"{combined['collated']['entropy_bits']:.4f}",
            f"{combined['collated']['normalized_entropy']:.4f}",
            str(combined["collated"]["unique_ids"]),
            str(combined["collated"]["anonymity_sets"]["max"]),
        ])
    out.append("")
    out.append("diversity (entropy in bits; raw = first observation):")
    out.append(_table(
        ["vector", "efps", "edges", "collated", "H_raw", "H_coll",
         "e_norm", "unique", "max_set"], rows))

    out.append("")
    out.append("stability (raw fickleness vs collated collapse):")
    stab_rows = []
    for name, section in sections:
        stab = section["stability"]
        stab_rows.append([
            name, str(stab["users"]), str(stab["raw_fickle_users"]),
            f"{stab['raw_mean_distinct_efps']:.3f}",
            str(stab["raw_max_distinct_efps"]),
            str(stab["fickle_users_collapsed"]),
            f"{stab['collated_stable_fraction']:.3f}",
        ])
    out.append(_table(
        ["vector", "users", "fickle", "mean_efps", "max_efps",
         "collapsed", "coll_stable"], stab_rows))
    out.append("")
    return "\n".join(out)
