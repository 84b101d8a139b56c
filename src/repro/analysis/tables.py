"""Paper Tables 2–5: the cross-vector comparison battery.

Where ``repro.analysis.report`` measures each vector in isolation, this
module reproduces the paper's *comparative* results:

  Table 2  diversity of the audio vectors and their combined tuple.
  Table 3  diversity of the comparator vectors (canvas, fonts,
           useragent, mathjs) and the all-vector combination.
  additive value — how much entropy audio adds on top of each
           comparator (the paper's Canvas+Audio ≈ +9.6%,
           UA+Audio ≈ +9.7% headline).
  match scores — re-identification consistency when a user returns:
           train on the first ``s`` iterations, test on the next ``s``
           (the paper reports ≥ ~0.98 for s >= 2).
  Table 4  the 528-user follow-up: Math-JS diversity vs DC diversity
           (the math library explains only part of the audio signal).
  Table 5  the same attribution per platform: distinct DC vs distinct
           Math-JS fingerprints within each OS.

Same determinism contract as the analysis report: the document is a
pure function of the dataset, every float is rounded to
``FLOAT_DECIMALS``, serialization is sorted — the same dataset always
produces byte-identical table reports.
"""
from __future__ import annotations

import numpy as np

from ..obs import NULL_RECORDER
from ..schema import (COUNT, NUMBER, POSITIVE, STRING, STUDY, Check, each,
                      maybe)
from ..schema import problems as schema_problems
from ..vectors.registry import get_vector
from .collation import (collate, combined_user_ids, component_roots,
                        series_edges)
from .entropy import FLOAT_DECIMALS, distribution, shannon_entropy
from .report import DISTRIBUTION, distribution_problems, dumps_analysis_report

__all__ = [
    "TABLES_KIND", "TABLES_FORMAT", "MATCH_SPLITS", "classify_vectors",
    "match_score", "build_tables_report", "dumps_tables_report",
    "validate_tables_report", "render_tables_report",
]

TABLES_KIND = "repro.analysis.tables"
TABLES_FORMAT = 1

#: the revisit depths the match-score table sweeps (paper's s axis)
MATCH_SPLITS = (1, 2, 3, 5)


def _round(value: float) -> float:
    return round(float(value), FLOAT_DECIMALS)


def classify_vectors(names) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Split vector names into (audio, comparator) battery halves.

    Raises ``UnknownVectorError`` on any name the registry has never
    seen — the tables CLI surfaces that as a named error, not a
    traceback.
    """
    audio, comparator = [], []
    for name in names:
        vector = get_vector(name)
        if vector.kind == "comparator":
            comparator.append(name)
        else:
            audio.append(name)
    return tuple(audio), tuple(comparator)


def match_score(codes: np.ndarray, s: int) -> float | None:
    """Fraction of users whose revisit fingerprints stay linkable.

    Train on each user's first ``s`` iterations (collating co-observed
    eFPs into components, exactly like the full-study collation), then
    test on the next ``s``: a user *matches* iff at least one test eFP
    was already seen in training and every previously-seen test eFP
    resolves to the user's own training component. Both conditions are
    masked reductions over the ``(users, s)`` test grid. Returns None
    when there are no users or the series is too short to split (needs
    ``2 s`` iterations).
    """
    users, iterations = codes.shape
    if users == 0 or iterations < 2 * s:
        return None
    train = codes[:, :s]
    test = codes[:, s:2 * s]
    roots = component_roots(int(codes.max()) + 1, series_edges(train))
    seen = np.zeros(roots.shape[0], dtype=bool)
    seen[train.ravel()] = True
    own = roots[train[:, 0]]
    hit = seen[test]
    matched = hit.any(axis=1) & (
        (roots[test] == own[:, None]) | ~hit).all(axis=1)
    return int(matched.sum()) / users


def _battery_section(collations, names) -> dict:
    """One diversity table: per-vector collated distributions plus the
    combined per-user tuple row."""
    section = {
        "vectors": {name: distribution(
            collations[name].user_components.tolist()) for name in names},
    }
    section["combined"] = distribution(combined_user_ids(collations, names)) \
        if names else None
    return section


def _additive_value(collations, audio_names, comparator_names):
    """Entropy each comparator gains when paired with the combined audio
    fingerprint (the paper's additive-value analysis)."""
    if not audio_names or not comparator_names:
        return None
    audio_ids = combined_user_ids(collations, audio_names)
    pairs = []
    for base in comparator_names:
        base_ids = collations[base].user_components.tolist()
        base_bits = shannon_entropy(base_ids)
        pair_bits = shannon_entropy(
            [(b, a) for b, a in zip(base_ids, audio_ids)])
        pairs.append({
            "base": base,
            "base_entropy_bits": _round(base_bits),
            "with_audio_entropy_bits": _round(pair_bits),
            "delta_bits": _round(pair_bits - base_bits),
            "delta_pct": (_round(100.0 * (pair_bits - base_bits) / base_bits)
                          if base_bits > 0 else None),
        })
    return {"audio_vectors": list(audio_names), "pairs": pairs}


def _match_scores(collations, audio_names, iterations):
    """The revisit-consistency sweep over ``MATCH_SPLITS``; only splits
    the series actually covers (2 s <= iterations) are emitted, and a
    study with no users has no sweep."""
    splits = [s for s in MATCH_SPLITS if 2 * s <= iterations]
    if not audio_names or not splits \
            or not collations[audio_names[0]].user_ids:
        return None
    scores = {}
    for name in audio_names:
        codes = collations[name].codes
        scores[name] = {str(s): _round(match_score(codes, s))
                        for s in splits}
    return {"splits": splits, "scores": scores}


def _table4(collations):
    """Math-JS vs DC diversity (the 528-user follow-up's attribution)."""
    if "dc" not in collations or "mathjs" not in collations:
        return None
    dc = distribution(collations["dc"].user_components.tolist())
    mathjs = distribution(collations["mathjs"].user_components.tolist())
    ratio = (dc["entropy_bits"] / mathjs["entropy_bits"]
             if mathjs["entropy_bits"] > 0 else None)
    return {
        "dc": dc,
        "mathjs": mathjs,
        "dc_over_mathjs_entropy": _round(ratio) if ratio is not None else None,
    }


def _table5(dataset, collations):
    """Per-platform distinct DC vs distinct Math-JS fingerprints; None
    when the study has no users, so no platform."""
    if "dc" not in collations or "mathjs" not in collations \
            or not collations["dc"].user_ids:
        return None
    dc = collations["dc"]
    mathjs = collations["mathjs"]
    os_of = {user["id"]: user.get("os", "unknown") for user in dataset.users}
    groups: dict[str, list[int]] = {}
    for index, user_id in enumerate(dc.user_ids):
        groups.setdefault(os_of.get(user_id, "unknown"), []).append(index)
    rows = []
    for platform in sorted(groups):
        indexes = np.array(groups[platform], dtype=np.int64)
        rows.append({
            "platform": platform,
            "users": int(indexes.shape[0]),
            "dc_distinct": int(
                np.unique(dc.user_components[indexes]).shape[0]),
            "mathjs_distinct": int(
                np.unique(mathjs.user_components[indexes]).shape[0]),
        })
    return rows


def build_tables_report(dataset, collations=None,
                        recorder=NULL_RECORDER) -> dict:
    """Collate (unless pre-collated) and assemble the tables document."""
    audio_names, comparator_names = classify_vectors(dataset.vectors)
    if collations is None:
        collations = collate(dataset, recorder=recorder)
    with recorder.span("tables"):
        all_names = audio_names + comparator_names
        return {
            "kind": TABLES_KIND,
            "format": TABLES_FORMAT,
            "dataset": {
                "seed": dataset.seed,
                "user_count": dataset.user_count,
                "iterations": dataset.iterations,
                "vectors": list(dataset.vectors),
            },
            "audio_vectors": list(audio_names),
            "comparator_vectors": list(comparator_names),
            "table2_audio": _battery_section(collations, audio_names),
            "table3_comparators": _battery_section(collations,
                                                   comparator_names),
            "combined_all": (distribution(
                combined_user_ids(collations, all_names))
                if all_names else None),
            "additive_value": _additive_value(collations, audio_names,
                                              comparator_names),
            "match_scores": _match_scores(collations, audio_names,
                                          dataset.iterations),
            "table4_mathjs": _table4(collations),
            "table5_platforms": _table5(dataset, collations),
        }


#: the canonical byte encoding (what the CLI writes and CI diffs) — the
#: one every repro.analysis document shares
dumps_tables_report = dumps_analysis_report


# -- validation (the CI schema check) ----------------------------------------

_BATTERY = {"vectors": each(DISTRIBUTION), "combined": maybe(DISTRIBUTION)}

_SCHEMA = {
    "kind": TABLES_KIND,
    "format": TABLES_FORMAT,
    "dataset": STUDY,
    "audio_vectors": [STRING],
    "comparator_vectors": [STRING],
    "table2_audio": _BATTERY,
    "table3_comparators": _BATTERY,
    "combined_all": maybe(DISTRIBUTION),
    "additive_value": maybe({"pairs": [{
        "base": STRING, "base_entropy_bits": NUMBER,
        "with_audio_entropy_bits": NUMBER, "delta_bits": NUMBER,
        "delta_pct": maybe(NUMBER)}]}),
    "match_scores": maybe({
        "splits": [POSITIVE],
        "scores": each(each(Check(
            lambda v: NUMBER.test(v) and 0.0 <= v <= 1.0, "in [0, 1]")))}),
    "table4_mathjs": maybe({"dc": DISTRIBUTION, "mathjs": DISTRIBUTION}),
    "table5_platforms": maybe([{
        "platform": STRING, "users": COUNT, "dc_distinct": COUNT,
        "mathjs_distinct": COUNT}]),
}


def validate_tables_report(payload) -> list[str]:
    """Return the list of schema/integrity problems (empty == valid)."""
    problems = schema_problems(payload, _SCHEMA)
    if problems:
        return problems
    audio = payload["audio_vectors"]
    comparator = payload["comparator_vectors"]
    if not audio:
        problems.append("audio_vectors must be non-empty")
    if set(audio) & set(comparator):
        problems.append("audio_vectors and comparator_vectors overlap")
    if sorted(payload["dataset"]["vectors"]) != sorted(audio + comparator):
        problems.append("audio+comparator vectors do not cover "
                        "dataset.vectors")

    dists = []
    for section_key, names in (("table2_audio", audio),
                               ("table3_comparators", comparator)):
        vectors = payload[section_key]["vectors"]
        combined = payload[section_key]["combined"]
        if sorted(vectors) != sorted(names):
            problems.append(
                f"{section_key}.vectors keys must match the declared names")
        dists += [(f"{section_key}.vectors[{name!r}]", dist)
                  for name, dist in vectors.items()]
        if combined is None:
            if names:
                problems.append(f"{section_key}.combined missing")
            continue
        dists.append((f"{section_key}.combined", combined))
        # combining vectors can only refine the partition
        for name, dist in vectors.items():
            if combined["entropy_bits"] < dist["entropy_bits"] - 1e-9:
                problems.append(
                    f"{section_key}.combined entropy below component "
                    f"{name!r} (refinement invariant violated)")
    if payload["combined_all"] is not None:
        dists.append(("combined_all", payload["combined_all"]))
    table4 = payload["table4_mathjs"]
    if table4 is not None:
        dists += [("table4_mathjs.dc", table4["dc"]),
                  ("table4_mathjs.mathjs", table4["mathjs"])]
    for where, dist in dists:
        problems += distribution_problems(where, dist)

    additive = payload["additive_value"]
    if additive is not None:
        if not additive["pairs"]:
            problems.append("additive_value.pairs must be non-empty")
        for entry in additive["pairs"]:
            if entry["with_audio_entropy_bits"] \
                    < entry["base_entropy_bits"] - 1e-9:
                problems.append(
                    f"additive_value[{entry['base']!r}]: pairing with audio "
                    "lowered entropy (monotonicity violated)")

    scores = payload["match_scores"]
    if scores is not None:
        if not scores["scores"]:
            problems.append("match_scores.scores must be non-empty")
        splits = {str(s) for s in scores["splits"]}
        for name, per_split in scores["scores"].items():
            if set(per_split) != splits:
                problems.append(f"match_scores.scores[{name!r}] keys must "
                                "be exactly match_scores.splits")

    table5 = payload["table5_platforms"]
    if table5 is not None:
        if not table5:
            problems.append("table5_platforms must be non-empty")
        for row in table5:
            for key in ("dc_distinct", "mathjs_distinct"):
                if row[key] > row["users"]:
                    problems.append(
                        f"table5_platforms[{row['platform']!r}].{key} "
                        "exceeds the platform's user count")
    return problems


# -- human-readable rendering -------------------------------------------------

def render_tables_report(payload: dict) -> str:
    """Render the tables report as the paper-style comparison tables."""
    from ..obs.report import _table  # deferred, same reason as report.py

    out: list[str] = []
    dataset = payload.get("dataset", {})
    out.append("== tables report (paper Tables 2-5) ==")
    out.append("dataset: " + ", ".join(f"{k}={v}" for k, v in dataset.items()))

    for title, key in (("table 2 — audio vectors", "table2_audio"),
                       ("table 3 — comparator vectors",
                        "table3_comparators")):
        section = payload.get(key) or {}
        rows = []
        for name, dist in (section.get("vectors") or {}).items():
            rows.append([name, str(dist["distinct"]),
                         f"{dist['entropy_bits']:.4f}",
                         f"{dist['normalized_entropy']:.4f}",
                         f"{dist['unique_fraction']:.4f}"])
        combined = section.get("combined")
        if combined:
            rows.append(["combined", str(combined["distinct"]),
                         f"{combined['entropy_bits']:.4f}",
                         f"{combined['normalized_entropy']:.4f}",
                         f"{combined['unique_fraction']:.4f}"])
        out.append("")
        out.append(title + ":")
        out.append(_table(["vector", "distinct", "H_bits", "e_norm",
                           "unique_frac"], rows))

    additive = payload.get("additive_value")
    if additive:
        out.append("")
        out.append("additive value of audio over each comparator:")
        rows = [[entry["base"], f"{entry['base_entropy_bits']:.4f}",
                 f"{entry['with_audio_entropy_bits']:.4f}",
                 f"{entry['delta_bits']:.4f}",
                 ("-" if entry.get("delta_pct") is None
                  else f"{entry['delta_pct']:+.2f}%")]
                for entry in additive["pairs"]]
        out.append(_table(["base", "H_base", "H_base+audio", "delta_bits",
                           "delta_pct"], rows))

    scores = payload.get("match_scores")
    if scores:
        out.append("")
        out.append("match scores (train s iterations, test next s):")
        splits = [str(s) for s in scores["splits"]]
        rows = [[name] + [f"{per_split[s]:.4f}" for s in splits]
                for name, per_split in scores["scores"].items()]
        out.append(_table(["vector"] + [f"s={s}" for s in splits], rows))

    table4 = payload.get("table4_mathjs")
    if table4:
        out.append("")
        out.append("table 4 — math library vs DC attribution:")
        rows = [["dc", str(table4["dc"]["distinct"]),
                 f"{table4['dc']['entropy_bits']:.4f}"],
                ["mathjs", str(table4["mathjs"]["distinct"]),
                 f"{table4['mathjs']['entropy_bits']:.4f}"]]
        out.append(_table(["vector", "distinct", "H_bits"], rows))

    table5 = payload.get("table5_platforms")
    if table5:
        out.append("")
        out.append("table 5 — per-platform DC vs Math-JS distinct counts:")
        rows = [[row["platform"], str(row["users"]),
                 str(row["dc_distinct"]), str(row["mathjs_distinct"])]
                for row in table5]
        out.append(_table(["platform", "users", "dc", "mathjs"], rows))
    out.append("")
    return "\n".join(out)
