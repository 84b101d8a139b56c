"""Tables 2–5 analysis: schema, determinism, and the paper's invariants.

The expensive fixture is a paper-scale 2093-user full-battery study
(cheap in wall clock thanks to the equivalence-class cache); the
qualitative assertions mirror the paper's published shape rather than
exact numbers — audio diversity far below canvas/fonts/UA, combination
only ever refining, additive value in the published regime, match
scores ~1 once a revisit sees two iterations, and the math library
explaining only part of the DC signal.
"""
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import RenderCache, StudyDataset, run_study
from repro.analysis.__main__ import main as analysis_main
from repro.analysis.tables import (MATCH_SPLITS, TABLES_FORMAT, TABLES_KIND,
                                   build_tables_report, classify_vectors,
                                   dumps_tables_report, match_score,
                                   render_tables_report,
                                   validate_tables_report)
from repro.obs.report import main as report_main
from repro.vectors import FULL_BATTERY, UnknownVectorError


@pytest.fixture(scope="module")
def paper_dataset():
    return run_study(2093, iterations=8, vectors=FULL_BATTERY, seed=2021,
                     cache=RenderCache(), workers=0)


@pytest.fixture(scope="module")
def tables(paper_dataset):
    return build_tables_report(paper_dataset)


class TestSchemaAndDeterminism:
    def test_kind_format_and_self_validation(self, tables):
        assert tables["kind"] == TABLES_KIND
        assert tables["format"] == TABLES_FORMAT
        assert validate_tables_report(tables) == []

    def test_byte_determinism(self, paper_dataset, tables):
        again = build_tables_report(paper_dataset)
        assert dumps_tables_report(again) == dumps_tables_report(tables)

    def test_renders_every_section(self, tables):
        text = render_tables_report(tables)
        for marker in ("table 2", "table 3", "additive value",
                       "match scores", "table 4", "table 5"):
            assert marker in text

    def test_validator_catches_corruption(self, tables):
        import copy
        bad = copy.deepcopy(tables)
        bad["format"] = 99
        assert any("format" in p for p in validate_tables_report(bad))
        bad = copy.deepcopy(tables)
        bad["table5_platforms"][0]["dc_distinct"] = 10 ** 6
        assert any("exceeds" in p for p in validate_tables_report(bad))

    def test_classify_rejects_unknown_vectors(self):
        with pytest.raises(UnknownVectorError):
            classify_vectors(("dc", "nope"))
        audio, comparator = classify_vectors(FULL_BATTERY)
        assert set(audio) == {"dc", "fft", "hybrid", "custom", "merged",
                              "am", "fm"}
        assert set(comparator) == {"mathjs", "canvas", "fonts", "useragent"}


class TestPaperInvariants:
    def test_audio_diversity_far_below_comparators(self, tables):
        """Table 2 vs Table 3: every audio vector's entropy sits well
        below canvas/fonts/useragent (the paper's core negative result)."""
        audio = tables["table2_audio"]["vectors"]
        comp = tables["table3_comparators"]["vectors"]
        max_audio = max(v["entropy_bits"] for v in audio.values())
        for name in ("canvas", "fonts", "useragent"):
            assert comp[name]["entropy_bits"] > 2 * max_audio

    def test_combined_refines_every_component(self, tables):
        for section in ("table2_audio", "table3_comparators"):
            combined = tables[section]["combined"]["entropy_bits"]
            for dist in tables[section]["vectors"].values():
                assert combined >= dist["entropy_bits"] - 1e-9
        overall = tables["combined_all"]["entropy_bits"]
        assert overall >= tables["table3_comparators"]["combined"][
            "entropy_bits"] - 1e-9

    def test_additive_value_in_published_regime(self, tables):
        """Canvas+Audio and UA+Audio land in the paper's ~+10% regime
        (published: +9.6% / +9.7%); audio always adds entropy."""
        pairs = {p["base"]: p for p in tables["additive_value"]["pairs"]}
        for base in ("canvas", "useragent", "fonts"):
            assert 4.0 <= pairs[base]["delta_pct"] <= 20.0
        for entry in pairs.values():
            assert entry["delta_bits"] >= 0.0
        # the low-entropy mathjs base gains proportionally far more
        assert pairs["mathjs"]["delta_pct"] > pairs["canvas"]["delta_pct"]

    def test_match_scores_high_for_two_plus_iterations(self, tables):
        """The paper's ≥ ~0.98 once training sees s >= 2 iterations."""
        scores = tables["match_scores"]["scores"]
        for name, per_split in scores.items():
            for split, value in per_split.items():
                if int(split) >= 2:
                    assert value >= 0.97, (name, split, value)
        # s=1 misses some jittery revisits: strictly below the s=2 score
        # for at least one analyser vector (otherwise the split sweep
        # isn't measuring anything)
        assert any(per_split.get("1", 1.0) < per_split.get("2", 1.0)
                   for per_split in scores.values())

    def test_table4_math_library_explains_only_part_of_dc(self, tables):
        table4 = tables["table4_mathjs"]
        assert table4["mathjs"]["entropy_bits"] < table4["dc"]["entropy_bits"]
        assert table4["mathjs"]["distinct"] < table4["dc"]["distinct"]
        assert table4["dc_over_mathjs_entropy"] > 1.0

    def test_table5_dc_out_diversifies_mathjs_per_platform(self, tables):
        rows = {row["platform"]: row for row in tables["table5_platforms"]}
        assert set(rows) == {"Windows", "macOS", "Linux", "Android"}
        for row in rows.values():
            assert row["dc_distinct"] >= row["mathjs_distinct"]
        # the paper's specific call-outs: macOS and Android show more DC
        # than math-library diversity (sample rate / compressor effects)
        for platform in ("macOS", "Android"):
            assert rows[platform]["dc_distinct"] \
                > rows[platform]["mathjs_distinct"]


class TestMatchScoreUnit:
    def test_too_short_series_returns_none(self):
        codes = np.zeros((4, 3), dtype=np.int64)
        assert match_score(codes, 2) is None

    def test_perfectly_stable_users_always_match(self):
        codes = np.arange(5, dtype=np.int64)[:, None].repeat(6, axis=1)
        for s in (1, 2, 3):
            assert match_score(codes, s) == 1.0

    def test_novel_revisit_efp_breaks_the_match(self):
        # user 0 revisits with an eFP never seen in training: no link
        codes = np.array([[0, 0, 7, 7], [1, 1, 1, 1]], dtype=np.int64)
        assert match_score(codes, 2) == 0.5

    def test_splits_cover_the_paper_axis(self):
        assert MATCH_SPLITS == (1, 2, 3, 5)


def _match_score_reference(codes, s):
    """``match_score`` by its definition, one user at a time: train roots
    by naive min-label propagation over each training row, then a
    per-user check of the revisit eFPs."""
    users, iterations = codes.shape
    if users == 0 or iterations < 2 * s:
        return None
    train = codes[:, :s].tolist()
    test = codes[:, s:2 * s].tolist()
    root = {e: e for row in train for e in row}
    changed = True
    while changed:
        changed = False
        for row in train:
            low = min(root[e] for e in row)
            for e in row:
                if root[e] != low:
                    root[e] = low
                    changed = True
    matched = 0
    for u in range(users):
        own = root[train[u][0]]
        revisits = [e for e in test[u] if e in root]
        if revisits and all(root[e] == own for e in revisits):
            matched += 1
    return matched / users


@given(codes=hnp.arrays(np.int64,
                        hnp.array_shapes(min_dims=2, max_dims=2, min_side=0,
                                         max_side=12),
                        elements=st.integers(0, 40)),
       s=st.sampled_from(MATCH_SPLITS))
# no users; too few iterations for the split
@example(codes=np.zeros((0, 12), dtype=np.int64), s=1)
@example(codes=np.zeros((3, 5), dtype=np.int64), s=3)
# user 0's revisit eFP 7 was never seen in training
@example(codes=np.array([[0, 0, 7, 7], [1, 1, 1, 1]]), s=2)
# user 0 revisits with 2, seen only in user 1's training, same component
@example(codes=np.array([[0, 1, 2, 2], [1, 2, 1, 2]]), s=2)
# user 0's revisits span their own component and user 1's
@example(codes=np.array([[0, 0, 0, 5], [5, 5, 5, 5]]), s=2)
def test_match_score_equals_per_user_definition(codes, s):
    assert match_score(codes, s) == _match_score_reference(codes, s)


class TestZeroUserStudy:
    """A dataset with no users is valid; the tables report has no match
    sweep and no platform rows, and says so with ``null``."""

    VECTORS = ("dc", "fft", "canvas", "mathjs")

    @pytest.fixture()
    def empty(self):
        return StudyDataset(seed=1, user_count=0, iterations=4,
                            vectors=self.VECTORS, users=[],
                            series={name: {} for name in self.VECTORS})

    def test_report_is_valid(self, empty):
        report = build_tables_report(empty)
        assert report["match_scores"] is None
        assert report["table5_platforms"] is None
        assert validate_tables_report(report) == []

    def test_cli_writes_and_renders(self, empty, tmp_path, capsys):
        path = tmp_path / "empty.json"
        empty.save(str(path))
        out = tmp_path / "tables.json"
        assert analysis_main([str(path), "--tables", "--out", str(out)]) == 0
        assert out.exists()
        capsys.readouterr()
        assert report_main([str(out)]) == 0
        assert "table 2" in capsys.readouterr().out


class TestStudyFrontDoor:
    def test_duplicate_vectors_rejected_before_rendering(self):
        with pytest.raises(ValueError, match="duplicate vector"):
            run_study(3, iterations=1, vectors=("dc", "fft", "dc"))

    def test_unknown_vector_rejected_with_typed_error(self):
        with pytest.raises(UnknownVectorError):
            run_study(3, iterations=1, vectors=("dc", "nope"))
        with pytest.raises(KeyError):
            run_study(3, iterations=1, vectors=("nope",))

    def test_sharded_driver_shares_the_front_door(self, tmp_path):
        from repro.population.shards import run_study_sharded
        with pytest.raises(ValueError, match="duplicate vector"):
            run_study_sharded(4, 2, str(tmp_path), iterations=1,
                              vectors=("dc", "dc"))
        with pytest.raises(UnknownVectorError):
            run_study_sharded(4, 2, str(tmp_path), iterations=1,
                              vectors=("nope",))
