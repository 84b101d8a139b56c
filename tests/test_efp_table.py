"""A golden eFP table over the whole audio battery.

One sha256 pins every eFP the model can produce for the sampler's stack
pool: each audio vector, on each distinct ``default_stack_pool()``
stack, at each path in ``PATHS`` (the two analyser-free vectors render
their one ``"-"`` path). That is 4,050 renders, one ``render_batch``
call per (vector, stack), so the readouts shared across vectors and the
readout's dedup of equal jitter paths are checked over every path on
every stack, not only over a few random ones.

The digest does not depend on the render loop: the table is checked
once through the fused loop every render runs, and once with each
context rendering through the 128-frame quantum reference loop instead.
"""
import hashlib

import pytest

from repro.platform import default_stack_pool
from repro.platform.jitter import PATHS
from repro.vectors import AUDIO_VECTORS, get_vector
from repro.webaudio import OfflineAudioContext

#: sha256 of the table's lines ``f"{name}|{stack key}|{path}|{efp}\n"``,
#: captured before the single-row renderers were deleted
GOLDEN_SHA256 = \
    "f5f67080305be1b9ee3d6e674d636d4f5f494dfacdfe3e861f0320edcbb5b20c"


@pytest.mark.parametrize("loop", ["fused", "quantum"])
def test_efp_table_is_pinned(loop, monkeypatch):
    if loop == "quantum":
        monkeypatch.setattr(OfflineAudioContext, "_render_fused",
                            lambda ctx, order: ctx._render_quantum())
    stacks = {}
    for stack, _os, _browser, _weight in default_stack_pool():
        stacks.setdefault(stack.cache_key(), stack)  # first seen, pool order
    table = hashlib.sha256()
    for name in AUDIO_VECTORS:
        vector = get_vector(name)
        paths = list(PATHS) if vector.uses_analyser else ["-"]
        for key, stack in stacks.items():
            for path, efp in zip(paths, vector.render_batch(stack, paths)):
                table.update(f"{name}|{key}|{path}|{efp}\n".encode())
    assert table.hexdigest() == GOLDEN_SHA256
