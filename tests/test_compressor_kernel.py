"""Randomised differential test of the compressor's whole-buffer kernel.

``DynamicsCompressorNode.process_buffer`` computes every block's peak and
scaled cumsums in whole-buffer passes and walks only the block-boundary
envelope state; ``process_block`` is the quantum reference it must
reproduce byte for byte. Hypothesis feeds both the same ``(1, n)``
input, block by block for the reference: a starting envelope, per-block
levels spanning four orders of magnitude so that attack and release
alternate, 1 to 40 quanta ending in a full, partial or one-frame block,
and every compressor variant and math backend at both of the stack
pool's sample rates. ``HYPOTHESIS_PROFILE=deep`` searches longer
(profiles are registered in the root ``conftest.py``).
"""
import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from repro.platform import COMPRESSOR_VARIANTS, MATH_BACKENDS, AudioStack
from repro.webaudio import RENDER_QUANTUM_FRAMES, OfflineAudioContext

_QUANTUM = RENDER_QUANTUM_FRAMES
#: per-block peak levels: far below, near and far above the envelope
_LEVELS = (0.0, 1e-4, 1e-2, 0.3, 1.0, 4.0)


@st.composite
def compressor_inputs(draw):
    quanta = draw(st.integers(1, 40))
    last = draw(st.sampled_from((1, _QUANTUM)) | st.integers(1, _QUANTUM))
    return dict(
        stack=AudioStack("blink", draw(st.sampled_from(sorted(MATH_BACKENDS))),
                         "numpy",
                         draw(st.sampled_from(sorted(COMPRESSOR_VARIANTS))),
                         draw(st.sampled_from((44100, 48000)))),
        length=_QUANTUM * (quanta - 1) + last,
        levels=draw(st.lists(st.sampled_from(_LEVELS), min_size=quanta,
                             max_size=quanta)),
        envelope=draw(st.just(0.0) | st.floats(0.0, 4.0)),
        seed=draw(st.integers(0, 2**32 - 1)))


def _input(spec):
    """The (1, n) input ``spec`` describes: uniform noise scaled by each
    block's level."""
    levels = np.repeat(np.array(spec["levels"]), _QUANTUM)[:spec["length"]]
    rng = np.random.default_rng(spec["seed"])
    return (rng.uniform(-1.0, 1.0, levels.shape) * levels)[None, :]


def _compress(spec, fused: bool):
    """Output, final envelope and reduction bytes of one compressor."""
    stack, n = spec["stack"], spec["length"]
    x = _input(spec)
    ctx = OfflineAudioContext(1, n, stack.sample_rate, config=stack.realize())
    node = ctx.create_dynamics_compressor()
    node._envelope = spec["envelope"]
    if fused:
        y = node.process_buffer([x], n)
    else:
        y = np.concatenate(
            [node.process_block([x[:, f0:f0 + _QUANTUM]], f0,
                                min(_QUANTUM, n - f0))
             for f0 in range(0, n, _QUANTUM)], axis=-1)
    return (np.ascontiguousarray(y).tobytes(),
            np.float64(node._envelope).tobytes(),
            np.float64(node.reduction).tobytes())


#: loud and quiet blocks alternate, so attack and release alternate from
#: a non-zero starting envelope, ending in a one-frame block
_ALTERNATING = dict(
    stack=AudioStack("gecko", "fdlibm", "numpy", "gecko", 48000),
    length=5 * _QUANTUM + 1, levels=[1.0, 1e-4, 4.0, 1e-2, 1.0, 0.0],
    envelope=0.5, seed=7)


@given(compressor_inputs())
@example(_ALTERNATING)
@example(dict(_ALTERNATING, length=39 * _QUANTUM + 8,
              levels=[4.0, 1e-4] * 20, envelope=0.25))
def test_buffer_kernel_equals_block_loop(spec):
    assert _compress(spec, fused=True) == _compress(spec, fused=False)
