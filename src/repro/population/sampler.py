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
"""
from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from ..platform.browsers import sample_ua
from ..platform.canvas_stack import sample_canvas
from ..platform.font_stack import sample_fonts
from ..platform.jitter import sample_load
from ..platform.stacks import default_stack_pool
from .device import Device

_SAMPLER_STREAM = 0x5AD  # keeps the sampler's draws disjoint from the study's


def _pool_cdf():
    """The stack pool plus its skewed pick CDF (computed once per call
    site, shared by every user in the slice)."""
    pool = default_stack_pool()
    base = np.array([w for (_, _, _, w) in pool], dtype=np.float64)
    zipf = 1.0 / np.power(np.arange(1, len(pool) + 1, dtype=np.float64), 0.35)
    weights = base * zipf
    weights /= weights.sum()
    return pool, np.cumsum(weights)


def user_seeds(seed: int, stream: int, start: int,
               stop: int) -> Iterator[np.random.SeedSequence]:
    """``SeedSequence([seed, stream, index])`` for each index in
    ``[start, stop)``, one at a time: the per-user stream seeds of the
    sampler and the study driver.

    numpy hashes a list of ints after splitting each into uint32 words,
    least significant first. When every int fits one word, the same
    words go in as a uint32 row per user, which seeds the identical
    sequence at a fifth of the cost of converting the list.
    """
    if not all(isinstance(value, (int, np.integer)) and 0 <= value < 2 ** 32
               for value in (seed, stream, start, stop - 1)):
        return (np.random.SeedSequence([seed, stream, index])
                for index in range(start, stop))
    entropy = np.empty((stop - start, 3), dtype=np.uint32)
    entropy[:, 0], entropy[:, 1] = seed, stream
    entropy[:, 2] = np.arange(start, stop)
    return map(np.random.SeedSequence, entropy)


def sample_population_slice(user_count: int, seed: int, start: int,
                            stop: int) -> list[Device]:
    """Sample users ``[start, stop)`` of a ``user_count``-user population.

    Bit-identical to ``sample_population(user_count, seed)[start:stop]``
    at O(stop - start) cost: each user's draws come from their own
    index-seeded stream, so no other user's stream is consumed.
    """
    if not isinstance(user_count, int) or isinstance(user_count, bool) \
            or user_count <= 0:
        raise ValueError(f"user_count must be a positive integer, "
                         f"got {user_count!r}")
    if not 0 <= start < stop <= user_count:
        raise ValueError(f"slice [{start}, {stop}) is not a non-empty "
                         f"sub-range of [0, {user_count})")
    pool, cdf = _pool_cdf()
    devices = []
    for i, seeds in enumerate(user_seeds(seed, _SAMPLER_STREAM, start, stop),
                              start):
        rng = np.random.default_rng(seeds)
        pick = min(int(np.searchsorted(cdf, rng.random(), side="right")),
                   len(pool) - 1)
        stack, os_name, browser, _ = pool[pick]
        # draw order is frozen: stack pick, load, then the comparator
        # stacks — appending the UA/canvas/fonts draws AFTER the original
        # two keeps every pre-existing device field (and with it every
        # cached audio eFP) bit-identical to older populations
        load = sample_load(rng)
        devices.append(Device(
            user_id=f"u{i:05d}",
            stack=stack,
            os=os_name,
            browser=browser,
            load=load,
            ua=sample_ua(rng, os_name, browser),
            canvas=sample_canvas(rng, os_name, browser),
            fonts=sample_fonts(rng, os_name, browser),
        ))
    return devices


def sample_population(user_count: int, seed: int = 2021) -> list[Device]:
    return sample_population_slice(user_count, seed, 0, user_count)
