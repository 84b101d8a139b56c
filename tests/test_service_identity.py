"""The tentpole's pinned invariant: the service's incremental collation
is *byte-identical* to the batch ``repro.analysis.collation`` on the
same stream — same dense collated ids, same eFP component labels, same
JSON bytes — plus order-independence of the partition and canonical
state round-trips."""
import json

import numpy as np
import pytest

from repro import run_study
from repro.analysis.collation import collate_vector
from repro.service import (IncrementalCollator, ServiceState,
                           visits_from_dataset)

STUDY = dict(user_count=25, iterations=8, vectors=("dc", "fft", "hybrid"),
             seed=11)


@pytest.fixture(scope="module")
def dataset():
    return run_study(workers=0, **STUDY)


def _stream_canonically(dataset, vector) -> IncrementalCollator:
    collator = IncrementalCollator(vector)
    for uid in dataset.user_ids():
        for efp in dataset.series[vector][uid]:
            collator.observe(uid, efp)
    return collator


class TestBatchEquivalence:
    @pytest.mark.parametrize("vector", STUDY["vectors"])
    def test_user_assignment_is_byte_identical_to_batch(self, dataset,
                                                        vector):
        """THE acceptance pin: stream a dataset's visits in canonical
        order and the final collated-id assignment, JSON-dumped, is
        byte-for-byte the batch collation's."""
        incremental = _stream_canonically(dataset, vector)
        batch = collate_vector(dataset, vector)
        online = json.dumps(incremental.user_component_ids(),
                            sort_keys=True).encode()
        offline = json.dumps(
            {u: int(c) for u, c in batch.user_component_ids().items()},
            sort_keys=True).encode()
        assert online == offline

    @pytest.mark.parametrize("vector", STUDY["vectors"])
    def test_efp_components_match_batch(self, dataset, vector):
        """Interning in arrival order reproduces the batch ``intern()``
        id space exactly, so per-eFP component labels line up too."""
        incremental = _stream_canonically(dataset, vector)
        batch = collate_vector(dataset, vector)
        assert incremental.efp_component_ids() \
            == [int(c) for c in batch.efp_components]

    def test_anonymity_sets_match_batch_component_sizes(self, dataset):
        """``anonymity_set_size`` (the service's lookup answer) equals
        the number of users sharing the user's batch component."""
        vector = "dc"
        incremental = _stream_canonically(dataset, vector)
        batch_ids = collate_vector(dataset, vector).user_component_ids()
        sizes = np.bincount(np.array(list(batch_ids.values())))
        for user, component in batch_ids.items():
            assert incremental.anonymity_set_size(user) \
                == int(sizes[component])


class TestOrderIndependence:
    def test_interleaved_arrival_yields_identical_assignment(self, dataset):
        """Iteration-major arrival (all users' visit 0, then visit 1, …)
        lands on the identical dense assignment: min-root
        canonicalization makes the partition order-independent, and
        because every user's component contains that user's visit-0 eFP,
        the components' first-appearance ranks (hence dense labels)
        agree between the two orders."""
        canonical = ServiceState(dataset.vectors)
        interleaved = ServiceState(dataset.vectors)
        for visit in visits_from_dataset(dataset, seed=3):
            canonical.apply(visit.to_record())
        for visit in visits_from_dataset(dataset, seed=3, interleave=True):
            interleaved.apply(visit.to_record())
        for vector in dataset.vectors:
            assert canonical.collators[vector].user_component_ids() \
                == interleaved.collators[vector].user_component_ids()


class TestCanonicalState:
    def test_state_round_trips_byte_identically(self, dataset):
        state = ServiceState(dataset.vectors)
        for visit in visits_from_dataset(dataset, seed=3,
                                         spoof_fraction=0.2,
                                         bot_fraction=0.2):
            state.apply(visit.to_record())
        rebuilt = ServiceState.from_state(json.loads(state.canonical_bytes()))
        assert rebuilt.canonical_bytes() == state.canonical_bytes()

    def test_serialization_is_find_history_independent(self, dataset):
        """Path halving mutates parent pointers on lookup; canonical
        serialization resolves them away, so a heavily-queried collator
        serializes identically to an untouched clone."""
        queried = _stream_canonically(dataset, "dc")
        untouched = _stream_canonically(dataset, "dc")
        for user in queried.users():  # churn the find history
            queried.identity(user)
            queried.anonymity_set_size(user)
        assert queried.state_dict() == untouched.state_dict()

    def test_duplicate_visit_does_not_mutate_state(self, dataset):
        state = ServiceState(dataset.vectors)
        visits = visits_from_dataset(dataset, seed=3)
        for visit in visits:
            state.apply(visit.to_record())
        before = state.canonical_bytes()
        identities, anonymity, detections, duplicate = \
            state.apply(visits[0].to_record())
        assert duplicate
        assert detections == ()
        assert identities  # the duplicate is still answered
        assert state.canonical_bytes() == before
