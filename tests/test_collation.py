"""Collation: the fingerprint graph's connected components become stable
collated ids — edge cases (single user, fully stable, fully fickle,
cross-user sharing), component labelling, and exact permutation
invariance of the entropy metrics under user reordering."""
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import StudyDataset, run_study
from repro.analysis import (build_analysis_report, collate, collate_vector,
                            component_roots, series_edges)


def make_dataset(series, iterations):
    """Build a StudyDataset straight from {vector: {uid: [eFPs]}}."""
    vectors = tuple(series)
    uids = list(next(iter(series.values())))
    return StudyDataset(
        seed=0, user_count=len(uids), iterations=iterations,
        vectors=vectors,
        users=[{"id": uid} for uid in uids],
        series=series,
    )


def _naive_min_labels(size, edges):
    """Repeated min-label propagation over the edge list."""
    label = list(range(size))
    changed = True
    while changed:
        changed = False
        for a, b in edges.tolist():
            low = min(label[a], label[b])
            if label[a] != low or label[b] != low:
                label[a] = label[b] = low
                changed = True
    return label


@st.composite
def graphs(draw):
    """``(size, edges)``: 0-40 nodes and up to 60 random edges, so
    duplicates, self-loops and isolated nodes all turn up."""
    size = draw(st.integers(0, 40))
    count = draw(st.integers(0, 60)) if size else 0
    edges = draw(hnp.arrays(np.int64, (count, 2),
                            elements=st.integers(0, max(size - 1, 0))))
    return size, edges


class TestComponentRoots:
    @given(graphs())
    @example((0, np.empty((0, 2), dtype=np.int64)))
    @example((1, np.empty((0, 2), dtype=np.int64)))
    @example((1, np.array([[0, 0]])))
    @example((6, np.array([[3, 3], [4, 1], [1, 4], [4, 1], [5, 5]])))
    @example((40, np.empty((0, 2), dtype=np.int64)))
    # a path whose ids fall away from its minimum: 0 - 9 - 8 - ... - 1
    @example((10, np.array([[0, 9]] + [[k, k - 1] for k in range(9, 1, -1)])))
    def test_roots_match_naive_connectivity(self, graph):
        """Every node carries its component's minimum id: exactly the
        naive min-label propagation, not merely the same partition."""
        size, edges = graph
        roots = component_roots(size, edges)
        assert roots.dtype == np.int64
        assert roots.tolist() == _naive_min_labels(size, edges)

    def test_root_is_component_minimum_regardless_of_edge_order(self):
        for order in ([(2, 4), (4, 1), (1, 9)], [(1, 9), (4, 1), (2, 4)]):
            roots = component_roots(10, np.array(order))
            assert roots[1] == roots[2] == roots[4] == roots[9] == 1
            assert roots[0] == 0


class TestSeriesEdges:
    def test_star_edges_deduplicated(self):
        codes = np.array([[0, 1, 0, 2], [3, 3, 3, 3]])
        assert series_edges(codes).tolist() == [[0, 1], [0, 2]]

    def test_single_iteration_has_no_edges(self):
        assert series_edges(np.array([[0], [1]])).shape == (0, 2)


def _row_unique_edges(codes: np.ndarray) -> np.ndarray:
    """The reference dedup: star edges, (lo, hi) pairs, row-wise unique."""
    if codes.shape[1] < 2:
        return np.empty((0, 2), dtype=np.int64)
    first = np.broadcast_to(codes[:, :1],
                            (codes.shape[0], codes.shape[1] - 1))
    u, v = first.ravel(), codes[:, 1:].ravel()
    mask = u != v
    if not mask.any():
        return np.empty((0, 2), dtype=np.int64)
    u, v = u[mask], v[mask]
    return np.unique(np.stack([np.minimum(u, v), np.maximum(u, v)], axis=1),
                     axis=0)


@given(hnp.arrays(st.sampled_from([np.int64, np.int32]),
                  hnp.array_shapes(min_dims=2, max_dims=2, min_side=0,
                                   max_side=12),
                  elements=st.integers(0, 40)))
@example(np.zeros((0, 5), dtype=np.int64))
@example(np.arange(6, dtype=np.int32).reshape(6, 1))
@example(np.full((4, 7), 3, dtype=np.int64))
@example(np.array([[2 ** 31 - 1, 0, 2 ** 31 - 2]], dtype=np.int32))
def test_series_edges_equal_row_unique(codes):
    """The 1-D key dedup returns exactly the row-wise unique's edges:
    same pairs, same (lo, hi) order, same dtype."""
    got, want = series_edges(codes), _row_unique_edges(codes)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


class TestEdgeCases:
    def test_single_user_fickle_series_is_one_component(self):
        ds = make_dataset({"v": {"u0": ["a", "b", "c"]}}, iterations=3)
        col = collate_vector(ds, "v")
        assert col.efp_count == 3
        assert col.component_count == 1
        assert col.user_component_ids() == {"u0": 0}
        report = build_analysis_report(ds)
        per_user = report["vectors"]["v"]["collated"]["per_user"]
        assert per_user["entropy_bits"] == 0.0
        assert per_user["normalized_entropy"] == 0.0
        assert report["vectors"]["v"]["stability"]["fickle_users_collapsed"] == 1

    def test_fully_stable_distinct_users(self):
        ds = make_dataset(
            {"v": {f"u{i}": [f"e{i}"] * 4 for i in range(4)}}, iterations=4)
        col = collate_vector(ds, "v")
        assert col.edge_count == 0
        assert col.component_count == 4
        report = build_analysis_report(ds)
        dist = report["vectors"]["v"]["collated"]["per_user"]
        assert dist["entropy_bits"] == 2.0          # uniform over 4 users
        assert dist["normalized_entropy"] == 1.0    # everyone unique
        assert dist["unique_ids"] == 4
        stab = report["vectors"]["v"]["stability"]
        assert stab["raw_fickle_users"] == 0
        assert stab["collated_stable_users"] == 4

    def test_fully_fickle_every_iteration_differs(self):
        """Each user emits a fresh eFP every iteration (disjoint across
        users): collation must still collapse each user to one id."""
        ds = make_dataset(
            {"v": {f"u{i}": [f"e{i}.{k}" for k in range(5)]
                   for i in range(3)}}, iterations=5)
        col = collate_vector(ds, "v")
        assert col.efp_count == 15
        assert col.component_count == 3
        assert (col.raw_distinct_per_user() == 5).all()
        assert (col.collated_distinct_per_user() == 1).all()
        report = build_analysis_report(ds)
        stab = report["vectors"]["v"]["stability"]
        assert stab["raw_fickle_users"] == 3
        assert stab["fickle_users_collapsed"] == 3
        assert report["vectors"]["v"]["collated"]["per_user"]["distinct"] == 3

    def test_shared_efp_merges_users_into_one_anonymity_set(self):
        ds = make_dataset(
            {"v": {"uA": ["x", "y"], "uB": ["y", "z"], "uC": ["w", "w"]}},
            iterations=2)
        col = collate_vector(ds, "v")
        ids = col.user_component_ids()
        assert ids["uA"] == ids["uB"]       # share y -> one component
        assert ids["uC"] != ids["uA"]
        report = build_analysis_report(ds)
        sizes = report["vectors"]["v"]["collated"]["per_user"]["anonymity_sets"]
        assert sizes["sizes"] == {"1": 1, "2": 1}

    def test_transitive_merge_across_users(self):
        """A-B share b, B-C share c: all three users must collate to one
        id even though A and C share nothing directly."""
        ds = make_dataset(
            {"v": {"uA": ["a", "b"], "uB": ["b", "c"], "uC": ["c", "d"]}},
            iterations=2)
        col = collate_vector(ds, "v")
        assert col.component_count == 1
        assert len(set(col.user_component_ids().values())) == 1


@pytest.fixture(scope="module")
def study():
    return run_study(user_count=60, iterations=10,
                     vectors=("dc", "fft", "hybrid"), seed=2021, workers=0)


class TestOnRealStudy:
    def test_every_fickle_user_collapses(self, study):
        """The acceptance property: collated ids are strictly more stable
        than raw eFPs — every fickle raw series maps to exactly one
        collated id per vector."""
        saw_fickle = False
        for name, col in collate(study).items():
            raw = col.raw_distinct_per_user()
            assert (col.collated_distinct_per_user() == 1).all(), name
            saw_fickle = saw_fickle or bool((raw > 1).any())
        assert saw_fickle  # the study must actually contain fickle series

    def test_collation_is_deterministic(self, study):
        a = collate_vector(study, "fft")
        b = collate_vector(study, "fft")
        assert a.labels == b.labels
        assert np.array_equal(a.efp_components, b.efp_components)
        assert np.array_equal(a.user_components, b.user_components)
        assert a.edge_count == b.edge_count

    def test_dc_components_equal_distinct_efps(self, study):
        """DC is bit-stable, so its graph has no edges and components
        degenerate to the distinct raw eFPs."""
        col = collate_vector(study, "dc")
        assert col.edge_count == 0
        assert col.component_count == col.efp_count

    def test_entropy_is_permutation_invariant(self, study):
        """Reordering users must leave every entropy/anonymity/stability
        number exactly (bit-for-bit) unchanged."""
        report = build_analysis_report(study)

        order = list(range(study.user_count))
        rng = np.random.default_rng(7)
        rng.shuffle(order)
        shuffled = StudyDataset(
            seed=study.seed, user_count=study.user_count,
            iterations=study.iterations, vectors=study.vectors,
            users=[study.users[i] for i in order],
            series={v: {u["id"]: study.series[v][u["id"]]
                        for u in (study.users[i] for i in order)}
                    for v in study.vectors},
        )
        other = build_analysis_report(shuffled)
        for name in study.vectors:
            mine, theirs = report["vectors"][name], other["vectors"][name]
            assert mine["graph"] == theirs["graph"]
            assert mine["raw"] == theirs["raw"]
            assert mine["collated"] == theirs["collated"]
            assert mine["stability"] == theirs["stability"]
        assert report["combined"]["collated"] == other["combined"]["collated"]
        assert (report["combined"]["raw_first_observation"]
                == other["combined"]["raw_first_observation"])

    def test_combined_at_least_as_diverse_as_components(self, study):
        """The paper's Combined row: the cross-vector tuple can only
        refine the partition, never coarsen it."""
        report = build_analysis_report(study)
        combined = report["combined"]["collated"]["entropy_bits"]
        for name in study.vectors:
            single = report["vectors"][name]["collated"]["per_user"]["entropy_bits"]
            assert combined >= single - 1e-12
