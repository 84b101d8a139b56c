"""Shard-mergeable analysis: external-memory collation at million-user scale.

The monolithic pipeline (``build_analysis_report``) needs the whole
``StudyDataset`` in memory. At the north star's scale that is exactly
the thing we cannot have — so this module splits the analysis into a
*mergeable* form built on one observation: every quantity in the
analysis report is a label-free function of **count multisets** (per-eFP
observation counts, per-component user counts, per-tuple user counts)
plus a handful of per-user scalars that sum. Nothing in the report needs
per-user rows once those counts exist.

A *shard report* is therefore O(distinct eFPs + distinct tuples), not
O(users). Per vector it carries:

  labels         the shard's distinct eFPs (shard-local interning order)
  observations   per-label total occurrence counts
  first          per-label first-observation (one per user) counts
  edges          the shard's deduplicated co-observation star edges, as
                 label-index pairs
  stability      summed/maxed per-user scalars (fickleness, collapse)

plus one cross-vector ``combined.tuples`` counter (per-user tuples of
first-observed eFPs, as label indices).

``merge_shard_reports`` re-interns labels globally, sums the count
vectors, unions the edge sets (unordered label pairs dedupe exactly the
way the monolithic ``np.unique`` pass does), labels components with the
same ``component_roots`` pass over the union, and re-assembles a
**byte-identical** monolithic analysis report:

- counts are integers, so sums are exact and associative;
- every float in a report is ``_round``-ed from a count multiset that
  matches the monolithic one element-for-element, and ``_sorted_counts``
  sorts before reducing, so the IEEE-754 partial sums agree too;
- per-user scalars (``raw_mean_distinct_efps`` etc.) merge as exact
  integer sums divided once at the end — the same float64 division
  ``np.mean`` performs.

Merge order therefore cannot matter (pinned by tests), and
``python -m repro.analysis --merge shard_report_*.json`` of a full
partition produces the same bytes as analysing the monolithic dataset.
"""
from __future__ import annotations

from collections import Counter

import numpy as np

from ..schema import ARRAY, COUNT, POSITIVE, STRING, STUDY, each
from ..schema import problems as schema_problems
from .collation import collate_vector, component_roots
from .entropy import _round, distribution
from .report import ANALYSIS_FORMAT, ANALYSIS_KIND, dumps_analysis_report

SHARD_REPORT_KIND = "repro.analysis.shard_report"
SHARD_REPORT_FORMAT = 1


# -- building one shard's report ----------------------------------------------

def build_shard_report(dataset, manifest: dict) -> dict:
    """Reduce one shard's (shard-sized) dataset to its mergeable report.

    ``dataset`` holds only this shard's users (see
    ``population.shards.dataset_from_records``); ``manifest`` supplies
    the global study fingerprint and the shard range.
    """
    study = manifest["study"]
    shard = manifest["shard"]
    if dataset.user_count != shard["users"]:
        raise ValueError(
            f"dataset holds {dataset.user_count} users but the shard "
            f"manifest covers {shard['users']}")
    vectors = tuple(study["vectors"])
    sections = {}
    first_codes = []
    for name in vectors:
        # local collation: the stability collapse is *computed* per shard
        # (never assumed), exactly like the monolithic path — a user's
        # own series connects all their eFPs, so local and global
        # components agree on every per-user collapse scalar
        col = collate_vector(dataset, name)
        codes = col.codes
        raw_distinct = col.raw_distinct_per_user()
        coll_distinct = col.collated_distinct_per_user()
        fickle = raw_distinct > 1
        users = int(raw_distinct.shape[0])
        sections[name] = {
            "labels": col.labels,
            "observations": np.bincount(
                codes.ravel(), minlength=col.efp_count).tolist(),
            "first": np.bincount(
                codes[:, 0], minlength=col.efp_count).tolist(),
            "edges": col.edges.tolist(),
            "stability": {
                "users": users,
                "raw_fickle_users": int(fickle.sum()),
                "raw_distinct_sum": int(raw_distinct.sum()),
                "raw_max_distinct_efps": int(raw_distinct.max())
                if users else 0,
                "fickle_users_collapsed": int(
                    (coll_distinct[fickle] == 1).sum()),
                "collated_stable_users": int((coll_distinct == 1).sum()),
                "collated_max_ids_per_user": int(coll_distinct.max())
                if users else 0,
            },
        }
        first_codes.append(codes[:, 0])
    stacked = np.stack(first_codes, axis=1)
    tuple_counts = Counter(tuple(row) for row in stacked.tolist())
    tuples = sorted([list(key), int(count)]
                    for key, count in tuple_counts.items())
    return {
        "kind": SHARD_REPORT_KIND,
        "format": SHARD_REPORT_FORMAT,
        "study": dict(study),
        "shard": dict(shard),
        "engine_version": manifest["engine_version"],
        "vectors": sections,
        "combined": {"tuples": tuples},
    }


#: the canonical byte encoding for shard reports *and* merged analysis
#: reports — literally ``dumps_analysis_report``, so a merged report is
#: diffable byte-for-byte against the monolithic CLI's output
dumps_shard_or_merged = dumps_analysis_report


# -- validation ---------------------------------------------------------------

_SCHEMA = {
    "kind": SHARD_REPORT_KIND,
    "format": SHARD_REPORT_FORMAT,
    "study": STUDY,
    "shard": {"start": COUNT, "stop": COUNT, "users": COUNT},
    "engine_version": STRING,
    "vectors": each({
        "labels": [STRING],
        "observations": [COUNT],
        "first": [COUNT],
        "edges": [[COUNT]],
        "stability": dict.fromkeys(
            ("users", "raw_fickle_users", "raw_distinct_sum",
             "raw_max_distinct_efps", "fickle_users_collapsed",
             "collated_stable_users", "collated_max_ids_per_user"), COUNT),
    }),
    # [[label index per vector], positive count] pairs: checked below
    "combined": {"tuples": [ARRAY]},
}


def validate_shard_report(payload) -> list[str]:
    """Return the list of schema/integrity problems (empty == valid)."""
    problems = schema_problems(payload, _SCHEMA)
    if problems:
        return problems
    study, shard = payload["study"], payload["shard"]
    declared, vectors = study["vectors"], payload["vectors"]
    users = shard["users"]
    if not (shard["start"] < shard["stop"]
            and users == shard["stop"] - shard["start"]):
        problems.append("shard must have stop > start and "
                        "users == stop - start")
    if shard["stop"] > study["user_count"]:
        problems.append("shard range exceeds study.user_count")
    if not declared:
        problems.append("study.vectors must be non-empty")
    if sorted(vectors) != sorted(declared):
        return problems + ["vectors keys do not match study.vectors"]

    for name, sec in vectors.items():
        where = f"vectors[{name!r}]"
        n = len(sec["labels"])
        if len(set(sec["labels"])) != n:
            problems.append(f"{where}.labels contains duplicates")
        for key, expect, meaning in (
                ("first", users, "one first observation per user"),
                ("observations", users * study["iterations"],
                 "users x iterations")):
            if len(sec[key]) != n:
                problems.append(f"{where}.{key} must hold {n} counts "
                                "(one per label)")
            elif sum(sec[key]) != expect:
                problems.append(f"{where}.{key} sums to {sum(sec[key])}, "
                                f"expected {meaning} ({expect})")
        if not all(len(e) == 2 and e[0] != e[1] and max(e) < n
                   for e in sec["edges"]):
            problems.append(f"{where}.edges must be pairs of distinct "
                            "label indices")
        if sec["stability"]["users"] != users:
            problems.append(f"{where}.stability.users is "
                            f"{sec['stability']['users']}, shard covers "
                            f"{users}")

    widths = [len(vectors[name]["labels"]) for name in declared]
    total = 0
    seen_keys = set()
    for i, entry in enumerate(payload["combined"]["tuples"]):
        if not (len(entry) == 2 and isinstance(entry[0], list)
                and len(entry[0]) == len(declared)
                and all(COUNT.test(v) for v in entry[0])
                and POSITIVE.test(entry[1])):
            problems.append(f"combined.tuples[{i}] must be "
                            "[[index per vector], positive count]")
            continue
        if not all(v < w for v, w in zip(entry[0], widths)):
            problems.append(f"combined.tuples[{i}] indexes past a "
                            "vector's label table")
        key = tuple(entry[0])
        if key in seen_keys:
            problems.append(f"combined.tuples[{i}] duplicates key {key}")
        seen_keys.add(key)
        total += entry[1]
    if total != users:
        problems.append(f"combined.tuples counts sum to {total}, "
                        f"expected one tuple per user ({users})")
    return problems


# -- merging ------------------------------------------------------------------

def _check_same_study(reports: list[dict]) -> dict:
    study = reports[0]["study"]
    for report in reports[1:]:
        theirs = report["study"]
        for key in ("seed", "user_count", "iterations", "vectors"):
            if theirs.get(key) != study.get(key):
                raise ValueError(
                    f"shard reports mix studies: {key} is "
                    f"{theirs.get(key)!r} in one report and "
                    f"{study.get(key)!r} in another")
        if report.get("engine_version") != reports[0].get("engine_version"):
            raise ValueError(
                f"shard reports mix engine versions "
                f"({report.get('engine_version')!r} vs "
                f"{reports[0].get('engine_version')!r})")
    return study


def _check_partition(ordered: list[dict], user_count: int) -> None:
    expect = 0
    for report in ordered:
        shard = report["shard"]
        if shard["start"] != expect:
            if shard["start"] < expect:
                raise ValueError(
                    f"shard reports overlap: [{shard['start']}, "
                    f"{shard['stop']}) begins before {expect}")
            raise ValueError(
                f"shard reports do not form a partition: gap before "
                f"user {shard['start']} (coverage reached {expect})")
        expect = shard["stop"]
    if expect != user_count:
        raise ValueError(
            f"shard reports cover [0, {expect}) but the study has "
            f"{user_count} users")


def merge_shard_reports(reports: list[dict]) -> dict:
    """Merge a full partition of shard reports into THE analysis report.

    The output is byte-identical (through ``dumps_shard_or_merged`` /
    ``dumps_analysis_report``) to ``build_analysis_report`` over the
    monolithic dataset, and invariant under the order reports are given
    in — they are canonically re-sorted by shard start, and every metric
    is a function of count multisets that sum associatively.
    """
    if not reports:
        raise ValueError("no shard reports to merge")
    for report in reports:
        problems = validate_shard_report(report)
        if problems:
            raise ValueError("invalid shard report: " + "; ".join(problems))
    study = _check_same_study(reports)
    ordered = sorted(reports, key=lambda r: r["shard"]["start"])
    _check_partition(ordered, study["user_count"])

    vectors = tuple(study["vectors"])
    sections = {}
    label_gid: dict[str, dict[str, int]] = {}
    efp_comp: dict[str, np.ndarray] = {}
    for name in vectors:
        gid: dict[str, int] = {}
        obs_counts: list[int] = []
        first_counts: list[int] = []
        edge_set: set[tuple[int, int]] = set()
        stab_sum = Counter()
        stab_max = Counter()
        for report in ordered:
            sec = report["vectors"][name]
            local = []
            for i, label in enumerate(sec["labels"]):
                g = gid.get(label)
                if g is None:
                    g = gid[label] = len(gid)
                    obs_counts.append(0)
                    first_counts.append(0)
                local.append(g)
                obs_counts[g] += sec["observations"][i]
                first_counts[g] += sec["first"][i]
            for a, b in sec["edges"]:
                ga, gb = local[a], local[b]
                edge_set.add((ga, gb) if ga < gb else (gb, ga))
            stab = sec["stability"]
            for key in ("users", "raw_fickle_users", "raw_distinct_sum",
                        "fickle_users_collapsed", "collated_stable_users"):
                stab_sum[key] += stab[key]
            for key in ("raw_max_distinct_efps",
                        "collated_max_ids_per_user"):
                stab_max[key] = max(stab_max[key], stab[key])

        roots = component_roots(len(gid), list(edge_set))
        if len(gid):
            _, comp = np.unique(roots, return_inverse=True)
        else:
            comp = np.empty(0, dtype=np.int64)
        comp_counts = Counter()
        for g, count in enumerate(first_counts):
            comp_counts[int(comp[g])] += count

        users = stab_sum["users"]
        fickle = stab_sum["raw_fickle_users"]
        coll_stable = stab_sum["collated_stable_users"]
        sections[name] = {
            "graph": {
                "efps": len(gid),
                "edges": len(edge_set),
                "components": int(comp.max()) + 1 if comp.size else 0,
            },
            "raw": {
                "observations": distribution(
                    Counter(dict(enumerate(obs_counts)))),
                "first_observation": distribution(
                    Counter(dict(enumerate(first_counts)))),
            },
            "collated": {"per_user": distribution(comp_counts)},
            "stability": {
                "users": users,
                "raw_stable_users": users - fickle,
                "raw_fickle_users": fickle,
                "raw_stable_fraction": _round(
                    (users - fickle) / users if users else 0.0),
                "raw_mean_distinct_efps": _round(
                    stab_sum["raw_distinct_sum"] / users if users else 0.0),
                "raw_max_distinct_efps": stab_max["raw_max_distinct_efps"],
                "fickle_users_collapsed": stab_sum["fickle_users_collapsed"],
                "collated_stable_users": coll_stable,
                "collated_stable_fraction": _round(
                    coll_stable / users if users else 0.0),
                "collated_max_ids_per_user":
                    stab_max["collated_max_ids_per_user"],
            },
        }
        label_gid[name] = gid
        efp_comp[name] = comp

    raw_tuples = Counter()
    coll_tuples = Counter()
    for report in ordered:
        label_lists = [report["vectors"][name]["labels"] for name in vectors]
        for idxs, count in report["combined"]["tuples"]:
            key = tuple(label_lists[v][i] for v, i in enumerate(idxs))
            raw_tuples[key] += count
            coll_key = tuple(
                int(efp_comp[name][label_gid[name][label]])
                for name, label in zip(vectors, key))
            coll_tuples[coll_key] += count

    return {
        "kind": ANALYSIS_KIND,
        "format": ANALYSIS_FORMAT,
        "dataset": {
            "seed": study["seed"],
            "user_count": study["user_count"],
            "iterations": study["iterations"],
            "vectors": list(vectors),
        },
        "vectors": sections,
        "combined": {
            "vectors": list(vectors),
            "raw_first_observation": distribution(raw_tuples),
            "collated": distribution(coll_tuples),
        },
    }


# -- human-readable rendering -------------------------------------------------

def render_shard_report(payload: dict) -> str:
    """Render a shard report as a compact summary table."""
    from ..obs.report import _table  # deferred, mirrors report.py

    shard = payload.get("shard", {})
    study = payload.get("study", {})
    out = ["== shard report =="]
    out.append(f"shard: [{shard.get('start')}, {shard.get('stop')}) "
               f"({shard.get('users')} users) of study "
               + ", ".join(f"{k}={v}" for k, v in study.items()
                           if k != "vectors"))
    rows = []
    for name, sec in payload.get("vectors", {}).items():
        stab = sec["stability"]
        rows.append([name, str(len(sec["labels"])), str(len(sec["edges"])),
                     str(stab["users"]), str(stab["raw_fickle_users"]),
                     str(stab["collated_stable_users"])])
    out.append("")
    out.append(_table(["vector", "efps", "edges", "users", "fickle",
                       "coll_stable"], rows))
    out.append(f"combined tuples: "
               f"{len(payload.get('combined', {}).get('tuples', []))}")
    out.append("")
    return "\n".join(out)
