"""ScriptProcessorNode: the deterministic stand-in for Web Audio's
script-processing path (``createScriptProcessor`` + ``onaudioprocess``).

Real fingerprinting scripts hook a JS callback between two native nodes
and transform (or just read) the samples with JS ``Math`` — which is why
the path is fingerprint-relevant at all: the JS engine's math library
leaks into the rendered buffer. Here the "script" is a vectorized Python
callable ``script(samples, t, math)`` receiving the input block, the
absolute per-frame time axis, and the stack's math backend (the stand-in
for JS ``Math``), returning the processed block.

Determinism contract: the script must be **elementwise in the frame
axis** — output frame ``i`` may depend only on ``samples[..., i]`` and
``t[i]``. That makes the node stateless and blocking-invariant, so the
fused whole-buffer kernel is bit-identical to the 128-frame quantum loop
by construction (the same ufunc evaluations in the same order per
frame). Scripts with cross-frame state
would need a block-granular kernel like the compressor's; none of the
paper's probes do.

``buffer_size`` is validated against the spec's allowed power-of-two
sizes and kept as metadata: because the script is elementwise, the
callback granularity cannot affect the rendered floats, so the engine is
free to apply it per render quantum (or per whole buffer on the fused
path) without emulating the spec's double-buffering latency.
"""
from __future__ import annotations

import numpy as np

from .node import AudioNode

#: the spec's valid ``bufferSize`` values for createScriptProcessor
VALID_BUFFER_SIZES = (256, 512, 1024, 2048, 4096, 8192, 16384)


class ScriptProcessorNode(AudioNode):
    def __init__(self, context, buffer_size: int = 256, script=None):
        if buffer_size not in VALID_BUFFER_SIZES:
            raise ValueError(
                f"buffer_size must be one of {VALID_BUFFER_SIZES}, "
                f"got {buffer_size!r}")
        super().__init__(context)
        self.buffer_size = int(buffer_size)
        #: ``script(samples, t, math) -> samples`` — elementwise in the
        #: frame axis (see module docstring); None = pass-through
        self.script = script

    def _apply(self, block: np.ndarray, frame0: int, n: int) -> np.ndarray:
        if self.script is None:
            return block
        fs = self.context.sample_rate
        # absolute frame indices are exact float64 integers, so t is the
        # same float at any blocking of the buffer
        t = (frame0 + np.arange(n, dtype=np.float64)) / fs
        return self.script(block, t, self.context.config.math)

    def process_block(self, inputs, frame0, n):
        return self._apply(inputs[0], frame0, n)

    def process_buffer(self, inputs, length):
        return self._apply(inputs[0], 0, length)
