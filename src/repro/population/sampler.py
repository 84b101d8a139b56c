"""Seeded population sampler.

Devices are drawn from the calibrated stack pool with a Zipf-style skew
layered on the pool's base weights, so a handful of stacks dominate (the
Windows/Chromium collapse) while a long tail supplies the diversity the
paper measures. Fully deterministic given the seed.

Every user owns an independent rng stream seeded by ``(seed, stream,
user_index)`` — the same construction the study driver uses for jitter
paths — so the population is *sliceable*: ``sample_population_slice``
produces exactly the devices a full draw would assign to that index
range, in O(slice) work, without replaying any other user's draws. That
is what lets a sharded study sample only its own users yet stay
bit-identical to the monolithic run (and what makes device identity
independent of the total population size: growing the study never
reshuffles existing users).

The sampler is columnar. ``user_seeds`` hashes every user's seed in one
array pass. Each user then makes three ``Generator`` calls, in the
frozen draw order: ``random()`` for the stack pick, ``beta(1.3, 3.5)``
for the load, and one ``random(15)`` for the comparator stacks (two UA
picks, four canvas picks, then one uniform per font pack; n doubles
from ``random(n)`` are the n a scalar ``random()`` loop gives). The
picks are array passes over those uniforms: one ``searchsorted`` per
table and OS or browser group, on the CDF ``pick_weighted`` uses, and
one comparison for the font packs. Each distinct UA, canvas and font
stack is built once and shared by the devices that hold it.
``sample_load``, ``sample_ua``, ``sample_canvas``, ``sample_fonts`` and
``pick_weighted`` remain the scalar definition of these draws, which the
tests compare the sampler with.
"""
from __future__ import annotations

import operator
from itertools import chain, compress

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from ..platform.browsers import (BROWSER_VERSIONS, OS_BUILDS, UAStack,
                                 _cumulative)
from ..platform.canvas_stack import (ANTIALIAS_MODES, DRIVER_POOLS,
                                     FONT_ENGINES, GPU_POOLS, CanvasStack)
from ..platform.font_stack import BASE_FONTS, FONT_PACKS, FontStack
from ..platform.stacks import default_stack_pool
from .device import Device

_SAMPLER_STREAM = 0x5AD  # keeps the sampler's draws disjoint from the study's

#: uniforms each user draws after the load: UA build and version, canvas
#: gpu, driver, font engine and antialias, then one per font pack
_COMPARATOR_DRAWS = 6 + len(FONT_PACKS)

# numpy's SeedSequence hash: a pool of 4 uint32 words, mixed by
# ``hashmix`` (INIT_A, MULT_A) and ``mix`` (MIX_MULT_L, MIX_MULT_R), and
# read out by ``generate_state`` (INIT_B, MULT_B)
_POOL_SIZE = 4
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED


def _integer(name: str, value, minimum: int) -> int:
    """``value`` as an ``int`` (anything ``operator.index`` accepts, but
    never a bool) of at least ``minimum``; else a ValueError naming
    ``name``. The one integer rule of the sampler's and the study
    drivers' front doors."""
    if not isinstance(value, bool):
        try:
            number = operator.index(value)
        except TypeError:
            pass
        else:
            if number >= minimum:
                return number
    kind = "a positive" if minimum == 1 else "a non-negative"
    raise ValueError(f"{name} must be {kind} integer, got {value!r}")


def _hashed_states(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, np.uint64)`` for every row of
    a ``(rows, words)`` uint32 entropy array, ``words`` at most the pool
    size: numpy's hash as one uint32 array pass. The hash constants
    evolve the same way for every row, so they stay scalars."""
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = (const * _MULT_A) & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> _XSHIFT)

    zeros = np.zeros(len(entropy), dtype=np.uint32)
    pool = [hashmix(entropy[:, i] if i < entropy.shape[1] else zeros)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    const = _INIT_B
    state = np.empty((len(entropy), 2 * _POOL_SIZE), dtype=np.uint32)
    for word in range(2 * _POOL_SIZE):
        value = pool[word % _POOL_SIZE] ^ np.uint32(const)
        const = (const * _MULT_B) & _MASK32
        value = value * np.uint32(const)
        state[:, word] = value ^ (value >> _XSHIFT)
    # numpy reads the uint32 words in little-endian pairs as uint64s
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _Hashed(ISeedSequence):
    """A seed sequence whose ``generate_state(4, np.uint64)`` — all that
    ``PCG64`` reads to seed itself — is already computed."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or (dtype is not np.uint64
                            and np.dtype(dtype) != np.uint64):
            raise ValueError("a hashed seed holds generate_state(4, "
                             "np.uint64) only")
        return self.state


def user_seeds(seed: int, stream: int, start: int, stop: int) -> list:
    """The seed sequence of ``[seed, stream, index]`` for each index in
    ``[start, stop)``: the per-user stream seeds of the sampler and the
    study driver. ``PCG64`` of each is that user's stream.

    numpy hashes a list of ints after splitting each into uint32 words,
    least significant first. When every int fits one word, each row's
    entropy is the same three words, and every row's state comes from
    one array pass of numpy's hash instead of one ``SeedSequence`` per
    user. Larger ints keep numpy's own ``SeedSequence``.
    """
    if not all(0 <= value < 2 ** 32
               for value in (seed, stream, start, stop - 1)):
        return [np.random.SeedSequence([seed, stream, index])
                for index in range(start, stop)]
    entropy = np.empty((stop - start, 3), dtype=np.uint32)
    entropy[:, 0], entropy[:, 1] = seed, stream
    entropy[:, 2] = np.arange(start, stop)
    return list(map(_Hashed, _hashed_states(entropy)))


def _pool_cdf():
    """The stack pool plus its skewed pick CDF (computed once per call
    site, shared by every user in the slice)."""
    pool = default_stack_pool()
    base = np.array([w for (_, _, _, w) in pool], dtype=np.float64)
    zipf = 1.0 / np.power(np.arange(1, len(pool) + 1, dtype=np.float64), 0.35)
    weights = base * zipf
    weights /= weights.sum()
    return pool, np.cumsum(weights)


def _draws(seeds) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each user's stack-pick uniform, beta load draw and comparator
    uniforms, from their own stream in the frozen order."""
    users = len(seeds)
    picks = np.empty(users)
    betas = np.empty(users)
    uniforms = np.empty((users, _COMPARATOR_DRAWS))
    generator, pcg64 = np.random.Generator, np.random.PCG64
    for row, seeded in enumerate(seeds):
        rng = generator(pcg64(seeded))
        picks[row] = rng.random()
        betas[row] = rng.beta(1.3, 3.5)
        rng.random(out=uniforms[row])
    return picks, betas, uniforms


def _pick_column(tables: list, group: np.ndarray,
                 uniforms: np.ndarray) -> tuple[np.ndarray, list]:
    """``pick_weighted`` of each user's uniform from ``tables[group]``,
    as one ``searchsorted`` per group on the CDF ``pick_weighted`` uses.
    Returns each user's index into ``values``, the tables' values
    concatenated, so an index also names its group."""
    picked = np.empty(len(uniforms), dtype=np.int64)
    values: list = []
    for g, table in enumerate(tables):
        rows = group == g
        table_values, cdf = _cumulative(tuple(table))
        picked[rows] = len(values) + np.minimum(
            np.searchsorted(cdf, uniforms[rows], side="right"),
            len(table_values) - 1)
        values.extend(table_values)
    return picked, values


def _shared(build, *columns: np.ndarray) -> list:
    """One object per distinct row of the integer ``columns``, made by
    ``build(user)`` for the row's first holder, and each user's object."""
    key = np.zeros(len(columns[0]), dtype=np.int64)
    for column in columns:
        key = key * (int(column.max()) + 1) + column
    _, first, inverse = np.unique(key, return_index=True,
                                  return_inverse=True)
    built = [build(user) for user in first.tolist()]
    return [built[i] for i in inverse.tolist()]


def sample_population_slice(user_count: int, seed: int, start: int,
                            stop: int) -> list[Device]:
    """Sample users ``[start, stop)`` of a ``user_count``-user population.

    Bit-identical to ``sample_population(user_count, seed)[start:stop]``
    at O(stop - start) cost: each user's draws come from their own
    index-seeded stream, so no other user's stream is consumed.

    Every argument is an integer (any ``operator.index`` value, never a
    bool): ``user_count`` positive, the others non-negative, and
    ``[start, stop)`` a non-empty sub-range of ``[0, user_count)``.
    Anything else raises a ``ValueError`` naming the argument before
    anything is drawn.
    """
    user_count = _integer("user_count", user_count, 1)
    seed = _integer("seed", seed, 0)
    start = _integer("start", start, 0)
    stop = _integer("stop", stop, 0)
    if not start < stop <= user_count:
        raise ValueError(f"slice [{start}, {stop}) is not a non-empty "
                         f"sub-range of [0, {user_count})")
    pool, cdf = _pool_cdf()
    picks, betas, uniforms = _draws(
        user_seeds(seed, _SAMPLER_STREAM, start, stop))
    rows = np.minimum(np.searchsorted(cdf, picks, side="right"),
                      len(pool) - 1)
    oses = list(dict.fromkeys(os_name for _, os_name, _, _ in pool))
    browsers = list(dict.fromkeys(browser for _, _, browser, _ in pool))
    os_id = np.array([oses.index(os_name)
                      for _, os_name, _, _ in pool])[rows]
    browser_id = np.array([browsers.index(browser)
                           for _, _, browser, _ in pool])[rows]

    build, builds = _pick_column([OS_BUILDS[o] for o in oses], os_id,
                                 uniforms[:, 0])
    version, versions = _pick_column(
        [BROWSER_VERSIONS[b] for b in browsers], browser_id, uniforms[:, 1])
    uas = _shared(lambda u: UAStack(
        os=oses[os_id[u]], os_build=builds[build[u]],
        browser=browsers[browser_id[u]], browser_version=versions[version[u]]),
        build, version)

    gpu, gpus = _pick_column([GPU_POOLS[o] for o in oses], os_id,
                             uniforms[:, 2])
    driver, drivers = _pick_column([DRIVER_POOLS[o] for o in oses], os_id,
                                   uniforms[:, 3])
    engine, engines = _pick_column([FONT_ENGINES[o] for o in oses], os_id,
                                   uniforms[:, 4])
    antialias, modes = _pick_column([ANTIALIAS_MODES], np.zeros_like(os_id),
                                    uniforms[:, 5])
    canvases = _shared(lambda u: CanvasStack(
        os=oses[os_id[u]], gpu=gpus[gpu[u]], driver=drivers[driver[u]],
        font_engine=engines[engine[u]], antialias=modes[antialias[u]]),
        gpu, driver, engine, antialias)

    # one uniform per pack; the installed packs as a bitmask
    installs = uniforms[:, 6:] < [probability for _, probability in FONT_PACKS]
    packs = installs @ (1 << np.arange(len(FONT_PACKS)))
    pack_fonts = [pack for pack, _ in FONT_PACKS]
    fonts = _shared(lambda u: FontStack(fonts=tuple(sorted(chain(
        BASE_FONTS[oses[os_id[u]]],
        *compress(pack_fonts, installs[u].tolist()))))), os_id, packs)

    # a load is sample_load's beta draw scaled by 0.9
    return [Device(f"u{index:05d}", stack, os_name, browser, load, ua,
                   canvas, font)
            for index, (stack, os_name, browser, _), load, ua, canvas, font
            in zip(range(start, stop), map(pool.__getitem__, rows.tolist()),
                   (betas * 0.9).tolist(), uas, canvases, fonts)]


def sample_population(user_count: int, seed: int = 2021) -> list[Device]:
    return sample_population_slice(user_count, seed, 0, user_count)
