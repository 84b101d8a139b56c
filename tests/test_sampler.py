"""The columnar sampler replays the per-user sampler exactly.

``sample_population_slice`` hashes every user's stream seed in one array
pass and makes its weighted picks as array passes over each user's
uniforms. ``_scalar_population`` below is the per-user loop it replaced:
one ``SeedSequence`` stream per user and the scalar ``sample_load``,
``sample_ua``, ``sample_canvas`` and ``sample_fonts`` draws. Hypothesis
compares the two on slices of populations up to 2**33 users, across
index 2**32 and both seeding paths; ``HYPOTHESIS_PROFILE=deep`` searches
longer. A golden digest pins the paper population's user records.
"""
import hashlib
import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.population.sampler as sampler_mod
from repro.platform.browsers import (BROWSER_VERSIONS, OS_BUILDS, _cumulative,
                                     sample_ua)
from repro.platform.canvas_stack import (ANTIALIAS_MODES, DRIVER_POOLS,
                                         FONT_ENGINES, GPU_POOLS,
                                         sample_canvas)
from repro.platform.font_stack import FONT_PACKS, sample_fonts
from repro.platform.jitter import sample_load
from repro.population.device import Device
from repro.population.sampler import (sample_population,
                                      sample_population_slice)
from repro.vectors import FULL_BATTERY, get_vector


def _scalar_population(user_count, seed, start, stop):
    """The per-user sampler loop: each user's own ``SeedSequence``
    stream, then the stack pick, the load and the comparator stacks."""
    pool, cdf = sampler_mod._pool_cdf()
    devices = []
    for index in range(start, stop):
        rng = np.random.default_rng(np.random.SeedSequence(
            [seed, sampler_mod._SAMPLER_STREAM, index]))
        pick = min(int(np.searchsorted(cdf, rng.random(), side="right")),
                   len(pool) - 1)
        stack, os_name, browser, _ = pool[pick]
        load = sample_load(rng)
        devices.append(Device(
            user_id=f"u{index:05d}", stack=stack, os=os_name,
            browser=browser, load=load,
            ua=sample_ua(rng, os_name, browser),
            canvas=sample_canvas(rng, os_name, browser),
            fonts=sample_fonts(rng, os_name, browser)))
    return devices


@st.composite
def slices(draw):
    """A slice of up to 12 users of a population of up to 2**33, often
    across index 2**32, with a seed below or above 2**32 (the two
    seeding paths)."""
    total = draw(st.integers(1, 2 ** 33))
    size = draw(st.integers(1, min(12, total)))
    start = draw(st.integers(0, total - size))
    if total > 2 ** 32 and size > 1 and draw(st.booleans()):
        start = 2 ** 32 - draw(st.integers(1, size - 1))
    seed = draw(st.integers(0, 2 ** 32 - 1) | st.integers(2 ** 32,
                                                          2 ** 64 - 1))
    return total, seed, start, start + size


class _Replay:
    """An rng stand-in replaying fixed draws: uniforms for ``random()``
    and one value for ``beta``."""

    def __init__(self, uniforms, beta):
        self.uniforms = list(uniforms)
        self.beta_value = beta

    def random(self):
        return self.uniforms.pop(0)

    def beta(self, a, b):
        return self.beta_value


def _steps():
    """Every CDF step the sampler searches and every font-pack
    probability: the uniforms where a search's side or a comparison's
    strictness decides the pick."""
    tables = [ANTIALIAS_MODES] + [table for pools in (
        OS_BUILDS, BROWSER_VERSIONS, GPU_POOLS, DRIVER_POOLS, FONT_ENGINES)
        for table in pools.values()]
    steps = {step for table in tables for step in _cumulative(tuple(table))[1]}
    steps.update(probability for _, probability in FONT_PACKS)
    steps.update(sampler_mod._pool_cdf()[1].tolist())
    return sorted(steps | {0.0})


_UNIFORMS = st.sampled_from(_steps()) | st.floats(0.0, 1.0, exclude_max=True)


@given(st.lists(st.tuples(_UNIFORMS, st.floats(0.0, 1.0),
                          st.lists(_UNIFORMS, min_size=15, max_size=15)),
                min_size=1, max_size=8))
def test_array_picks_equal_scalar_picks_on_cdf_steps(users):
    """The array picks give the scalar draws' devices for any uniforms,
    including a uniform exactly on a CDF step or a pack probability."""
    picks, betas, uniforms = (np.array(column) for column in zip(*users))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sampler_mod, "_draws", lambda seeds: (picks, betas,
                                                         uniforms))
        got = sample_population_slice(len(users), 0, 0, len(users))
    pool, cdf = sampler_mod._pool_cdf()
    for index, (device, (pick, beta, row)) in enumerate(zip(got, users)):
        rng = _Replay(row, beta)
        stack, os_name, browser, _ = pool[min(int(np.searchsorted(
            cdf, pick, side="right")), len(pool) - 1)]
        assert device == Device(
            f"u{index:05d}", stack, os_name, browser, sample_load(rng),
            sample_ua(rng, os_name, browser),
            sample_canvas(rng, os_name, browser),
            sample_fonts(rng, os_name, browser))


@given(slices())
def test_columnar_sampler_equals_scalar_sampler(case):
    total, seed, start, stop = case
    got = sample_population_slice(total, seed, start, stop)
    want = _scalar_population(total, seed, start, stop)
    assert got == want
    assert [d.describe() for d in got] == [d.describe() for d in want]


def test_columnar_sampler_equals_scalar_sampler_at_paper_seeds():
    for seed, users in ((2021, 400), (528, 300), (1, 200), (7, 200)):
        assert sample_population(users, seed) \
            == _scalar_population(users, seed, 0, users)


def test_equal_stacks_are_one_shared_object():
    """Devices holding equal comparator stacks hold the same object, so
    the planner keys each distinct stack once."""
    devices = sample_population(500, 3)
    for field in ("ua", "canvas", "fonts"):
        by_key = {}
        for device in devices:
            stack = getattr(device, field)
            assert by_key.setdefault(stack.cache_key(), stack) is stack
        assert 1 < len(by_key) < len(devices)


#: sha256 of json.dumps([d.describe() for d in sample_population(2093,
#: 2021)]), captured on the per-user sampler before the columnar one
POPULATION_SHA256 = \
    "d939d375f98377d0cd9f6d59f95e15896bbd08639ec19d1195eb6a7cb86e8bb0"


def test_paper_population_records_are_pinned():
    records = json.dumps([d.describe() for d in sample_population(2093,
                                                                  2021)])
    assert hashlib.sha256(records.encode()).hexdigest() == POPULATION_SHA256


BAD_ARGUMENTS = [
    ("user_count", True), ("user_count", 0), ("user_count", 2.0),
    ("user_count", "3"), ("seed", True), ("seed", -1), ("seed", 1.5),
    ("seed", None), ("start", False), ("start", 0.0), ("start", -1),
    ("stop", True), ("stop", 5.0),
]


@pytest.mark.parametrize("field, value", BAD_ARGUMENTS,
                         ids=[f"{f}={v!r}" for f, v in BAD_ARGUMENTS])
def test_slice_rejects_bad_argument_naming_it(field, value, monkeypatch):
    """The study front door's integer rule, checked before any draw."""
    def no_draws(*args):
        raise AssertionError("drew before validating the arguments")

    monkeypatch.setattr(sampler_mod, "user_seeds", no_draws)
    kw = dict(user_count=10, seed=1, start=0, stop=5)
    kw[field] = value
    with pytest.raises(ValueError, match=field):
        sample_population_slice(**kw)


@pytest.mark.parametrize("args, name", [
    ((3, True), "seed"), ((3, -1), "seed"), ((3, 1.5), "seed"),
    ((True, 1), "user_count"), ((0, 1), "user_count"),
    ((np.float64(3), 1), "user_count")], ids=repr)
def test_population_rejects_bad_argument_naming_it(args, name):
    with pytest.raises(ValueError, match=name):
        sample_population(*args)


@pytest.mark.parametrize("args", [(np.int64(5), 1), (5, np.uint16(1)),
                                  (np.int8(5), np.int64(1))], ids=repr)
def test_population_accepts_any_index_integer(args):
    assert sample_population(*args) == sample_population(5, 1)


def test_slice_accepts_any_index_integer():
    assert sample_population_slice(np.int64(10), np.uint32(1), np.int16(2),
                                   np.int64(6)) \
        == sample_population(10, 1)[2:6]


def test_stack_of_reads_the_stack_field():
    """Every vector names a ``Device`` field; all but ``mathjs`` (which
    projects the audio stack onto its math backend) return its object."""
    device = sample_population(1, 5)[0]
    names = {f.name for f in fields(Device)}
    for name in FULL_BATTERY:
        vector = get_vector(name)
        assert vector.stack_field in names
        stack = vector.stack_of(device)
        if name == "mathjs":
            assert stack.math_backend == device.stack.math_backend
        else:
            assert stack is getattr(device, vector.stack_field)
