"""Randomised differential test of the two study drivers.

``run_study`` and ``run_study_sharded`` run on one driver core, so a
sharded run must reproduce the monolithic one at any shard size and any
batch split: its shards reassemble to the monolithic dataset, and its
merged analysis report is byte-identical to the monolithic analysis.
Neither driver's output depends on the render cache's capacity, and a
driver-built dataset interns exactly as its own JSON round trip does.
Hypothesis draws the study, the shard size (from one user per shard to
a single shard), ``_MAX_BATCH`` and the cache capacity;
``HYPOTHESIS_PROFILE=deep`` searches longer (profiles are registered in
the root ``conftest.py``).
"""
import tempfile

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.population.study as study_mod
from repro import RenderCache, StudyDataset, run_study, run_study_sharded
from repro.analysis import build_analysis_report, dumps_analysis_report
from repro.population.shards import iter_shard_records
from repro.vectors import FULL_BATTERY


@st.composite
def sharded_studies(draw):
    """``(study kwargs, shard_size, max_batch, capacity)``: a small study,
    a shard size from one user per shard to one shard past the whole
    population, the batch cap to render it at, and a render-cache
    capacity (None = the default)."""
    user_count = draw(st.integers(1, 12))
    shard_size = draw(st.integers(1, user_count + 1))
    battery_order = draw(st.permutations(FULL_BATTERY))
    study = dict(
        user_count=user_count,
        iterations=draw(st.integers(1, 3)),
        vectors=tuple(battery_order[:draw(st.integers(1, 4))]),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    return (study, shard_size, draw(st.sampled_from([1, 2, 256])),
            draw(st.sampled_from([1, 2, 8, None])))


def _cache(capacity):
    return RenderCache() if capacity is None else RenderCache(capacity)


@given(sharded_studies())
def test_sharded_run_reproduces_monolithic(case):
    study, shard_size, max_batch, capacity = case
    with pytest.MonkeyPatch.context() as mp, \
            tempfile.TemporaryDirectory() as out_dir:
        mp.setattr(study_mod, "_MAX_BATCH", max_batch)
        monolithic = run_study(workers=0, **study)
        assert run_study(workers=0, cache=_cache(capacity), **study) \
            == monolithic
        sharded = run_study_sharded(shard_size=shard_size, out_dir=out_dir,
                                    workers=0, cache=_cache(capacity),
                                    **study)
        records = [record for shard in sharded.shards
                   for record in iter_shard_records(shard.paths.data)]
        vectors = study["vectors"]
        assert StudyDataset(
            seed=study["seed"], user_count=len(records),
            iterations=study["iterations"], vectors=vectors,
            users=[record["user"] for record in records],
            series={v: {record["user"]["id"]: record["series"][v]
                        for record in records} for v in vectors}) \
            == monolithic
        with open(sharded.merged_report_path, encoding="utf-8") as fh:
            merged = fh.read()
    assert merged == dumps_analysis_report(build_analysis_report(monolithic))
    # collation's byte identity rests on first-appearance interning: the
    # driver's codes must be what interning the string series gives
    loaded = StudyDataset.from_dict(monolithic.to_dict())
    for vector in monolithic.vectors:
        codes, labels, user_ids = monolithic.intern(vector)
        want_codes, want_labels, want_ids = loaded.intern(vector)
        assert codes.dtype == want_codes.dtype
        assert np.array_equal(codes, want_codes)
        assert (labels, user_ids) == (want_labels, want_ids)
