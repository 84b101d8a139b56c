"""The seeded-reproducibility contract (EXPERIMENTS.md): same seed ->
bit-identical dataset; different seed -> different stack assignments.
Plus the pool rule (a render step pools ``min(workers, jobs)``
processes) and the front door both study drivers share: the same bad
argument is rejected the same way, before anything is sampled or
written.
"""
import json

import numpy as np
import pytest

from repro import RenderCache, StudyDataset, run_study, run_study_sharded
from repro.population import study
from repro.population.sampler import sample_population

FAST = dict(user_count=50, iterations=6, vectors=("dc", "fft"), workers=0)


def test_same_seed_identical_dataset():
    a = run_study(seed=2021, **FAST)
    b = run_study(seed=2021, **FAST)
    assert a == b


def test_different_seed_different_assignments():
    a = run_study(seed=2021, **FAST)
    b = run_study(seed=2022, **FAST)
    assert a.stack_keys() != b.stack_keys()


def test_shared_cache_does_not_change_results():
    shared = RenderCache()
    first = run_study(seed=2021, cache=shared, **FAST)
    second = run_study(seed=2021, cache=shared, **FAST)  # 100% warm
    assert first == second
    assert shared.stats()["hit_rate"] > 0.9


def test_worker_count_does_not_change_results():
    serial = run_study(seed=2021, **FAST)
    pooled = run_study(seed=2021, user_count=50, iterations=6,
                       vectors=("dc", "fft"), workers=2)
    assert serial == pooled


def _pool_sizes(monkeypatch) -> list:
    """The pool size each render step hands its executor, read the way
    the pipeline benchmark's pool spy reads it."""
    sizes = []
    executor = study.SupervisedExecutor

    def spy(*args, **kwargs):
        sizes.append(kwargs.get("workers", 0))
        return executor(*args, **kwargs)
    monkeypatch.setattr(study, "SupervisedExecutor", spy)
    return sizes


#: (user_count, vectors, workers, os.cpu_count(), jobs, pool): a render
#: step hands its executor min(workers, jobs), workers=None meaning the
#: core count (1 when unknown); a pool of 0 or 1 renders inline
POOL_RULE = [
    pytest.param(4, ("dc",), 2, 2, 2, 2, id="two-groups"),
    pytest.param(3, ("dc",), 2, 2, 1, 1, id="one-group"),
    pytest.param(4, ("dc", "custom"), 2, 2, 4, 2, id="groups-over-workers"),
    pytest.param(4, ("dc", "custom"), 3, 1, 4, 3, id="workers-over-cores"),
    pytest.param(4, ("dc",), None, 3, 2, 2, id="auto-more-cores-than-groups"),
    pytest.param(4, ("dc", "custom"), None, 3, 4, 3, id="auto-more-groups"),
    pytest.param(4, ("dc",), None, None, 2, 1, id="auto-cores-unknown"),
    pytest.param(4, ("dc",), 1, 2, 2, 1, id="one-worker"),
]


@pytest.mark.parametrize("user_count, vectors, workers, cores, jobs, pool",
                         POOL_RULE)
def test_pool_rule(user_count, vectors, workers, cores, jobs, pool,
                   monkeypatch, tmp_path):
    """The executor gets the pool the rule names, the run report shows
    the pool that rendered, and the dataset is the inline one."""
    monkeypatch.setattr(study.os, "cpu_count", lambda: cores)
    sizes = _pool_sizes(monkeypatch)
    report = tmp_path / "report.json"
    dataset = run_study(user_count, 2, vectors, seed=7, workers=workers,
                        report_path=str(report))
    payload = json.loads(report.read_text())
    assert payload["counters"]["pool.jobs"] == jobs
    assert sizes == [pool]
    assert payload["pool"]["workers"] == pool
    assert dataset == run_study(user_count, 2, vectors, seed=7, workers=0)


def test_population_sampler_is_deterministic():
    a = sample_population(40, seed=5)
    b = sample_population(40, seed=5)
    assert a == b
    c = sample_population(40, seed=6)
    assert [d.stack for d in a] != [d.stack for d in c]


def test_vector_subset_keeps_other_streams():
    """Dropping the analyser-free DC vector must not shift the jitter
    streams of the analyser vectors."""
    both = run_study(seed=3, user_count=10, iterations=5,
                     vectors=("dc", "fft"), workers=0)
    only_fft = run_study(seed=3, user_count=10, iterations=5,
                         vectors=("fft",), workers=0)
    assert both.series["fft"] == only_fft.series["fft"]


def test_dataset_round_trips_through_json(tmp_path):
    dataset = run_study(seed=11, user_count=5, iterations=3,
                        vectors=("dc",), workers=0)
    path = str(tmp_path / "ds.json")
    dataset.save(path)
    assert StudyDataset.load(path) == dataset


def test_unknown_vector_rejected_before_sampling():
    with pytest.raises(KeyError):
        run_study(user_count=5, vectors=("dc", "nope"), workers=0)


def test_invalid_user_count():
    with pytest.raises(ValueError):
        run_study(user_count=0, workers=0)


@pytest.mark.parametrize("iterations", [0, -3])
def test_invalid_iterations_rejected_up_front(iterations):
    with pytest.raises(ValueError, match="iterations"):
        run_study(user_count=5, iterations=iterations, workers=0)


def test_empty_vectors_rejected_up_front():
    with pytest.raises(ValueError, match="vectors"):
        run_study(user_count=5, vectors=(), workers=0)


#: (argument, bad value): each must fail up front, in both drivers, with
#: a ValueError naming the argument
BAD_ARGUMENTS = [
    ("user_count", 2.5), ("user_count", True),
    ("iterations", True), ("iterations", 2.5), ("iterations", "3"),
    ("workers", 1.5), ("workers", False),
    ("seed", -1), ("seed", None), ("seed", 1.5),
    ("vectors", "dc"), ("vectors", 3),
    ("retry_budget", True), ("retry_budget", -1), ("retry_budget", 2.5),
    ("retry_budget", "5"),
]


@pytest.mark.parametrize("sharded", [False, True],
                         ids=["run_study", "run_study_sharded"])
@pytest.mark.parametrize("field, value", BAD_ARGUMENTS,
                         ids=[f"{f}={v!r}" for f, v in BAD_ARGUMENTS])
def test_front_door_rejects_bad_argument_naming_it(sharded, field, value,
                                                   tmp_path):
    kw = dict(user_count=3, iterations=2, vectors=("dc",), seed=7, workers=0)
    kw[field] = value
    out_dir = tmp_path / "shards"
    with pytest.raises(ValueError, match=field):
        if sharded:
            run_study_sharded(shard_size=2, out_dir=str(out_dir), **kw)
        else:
            run_study(**kw)
    assert not out_dir.exists()


def test_front_door_accepts_any_index_integer():
    """NumPy integers pass (``operator.index``) and come out as ``int``."""
    plain = run_study(3, iterations=2, vectors=("dc",), seed=7, workers=0)
    numpy = run_study(np.int64(3), iterations=np.int32(2), vectors=["dc"],
                      seed=np.uint16(7), workers=np.int8(0))
    assert numpy == plain
    assert type(numpy.user_count) is int and type(numpy.iterations) is int
    assert type(numpy.seed) is int
