"""Randomised differential test of the two study drivers.

``run_study`` and ``run_study_sharded`` run on one driver core, so a
sharded run must reproduce the monolithic one under any partition of the
population and any batch split: its shards reassemble to the monolithic
dataset, and its merged analysis report is byte-identical to the
monolithic analysis. Neither driver's output depends on the render
cache's capacity, and a driver-built dataset interns exactly as its own
JSON round trip does. Hypothesis draws the study, the partition,
``_MAX_BATCH`` and the cache capacity; ``HYPOTHESIS_PROFILE=deep``
searches longer (profiles are registered in the root ``conftest.py``).
"""
import tempfile

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.population.study as study_mod
from repro import RenderCache, StudyDataset, run_study, run_study_sharded
from repro.analysis import build_analysis_report, dumps_analysis_report
from repro.vectors import FULL_BATTERY


@st.composite
def sharded_studies(draw):
    """``(study kwargs, ranges, max_batch, capacity)``: a small study, a
    random partition of its population into ranges (in random order), the
    batch cap to render it at, and a render-cache capacity (None = the
    default)."""
    user_count = draw(st.integers(1, 12))
    # one coin per interior boundary: cut the population there or not
    cuts = draw(st.lists(st.booleans(), min_size=user_count - 1,
                         max_size=user_count - 1))
    bounds = [0, *(i + 1 for i, cut in enumerate(cuts) if cut), user_count]
    ranges = draw(st.permutations(list(zip(bounds, bounds[1:]))))
    battery_order = draw(st.permutations(FULL_BATTERY))
    study = dict(
        user_count=user_count,
        iterations=draw(st.integers(1, 3)),
        vectors=tuple(battery_order[:draw(st.integers(1, 4))]),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    return (study, ranges, draw(st.sampled_from([1, 2, 256])),
            draw(st.sampled_from([1, 2, 8, None])))


def _cache(capacity):
    return RenderCache() if capacity is None else RenderCache(capacity)


@given(sharded_studies())
def test_sharded_run_reproduces_monolithic(case):
    study, ranges, max_batch, capacity = case
    with pytest.MonkeyPatch.context() as mp, \
            tempfile.TemporaryDirectory() as out_dir:
        mp.setattr(study_mod, "_MAX_BATCH", max_batch)
        monolithic = run_study(workers=0, **study)
        assert run_study(workers=0, cache=_cache(capacity), **study) \
            == monolithic
        sharded = run_study_sharded(shard_size=None, out_dir=out_dir,
                                    ranges=ranges, workers=0,
                                    cache=_cache(capacity), **study)
        assert sharded.to_dataset() == monolithic
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
