"""GainNode: block multiply by an a-rate gain curve."""
from __future__ import annotations

import numpy as np

from .node import AudioNode, batch_uniform
from .param import AudioParam


class GainNode(AudioNode):
    def __init__(self, context):
        super().__init__(context)
        self.gain = AudioParam(1.0)

    def process_block(self, inputs, frame0, n):
        g = self.gain.values(frame0, n, self.context.sample_rate)
        return inputs[0] * g  # (n,) broadcasts over (B, channels, n)

    def process_buffer(self, inputs, length):
        # AudioParam.values evaluates each frame from its own absolute
        # time, so the whole-buffer curve holds the per-block floats
        # element for element, automation or not — one whole-buffer
        # multiply; a row-uniform input stays row-uniform (multiply one
        # row, broadcast)
        g = self.gain.values(0, length, self.context.sample_rate)
        x = inputs[0]
        if batch_uniform(x):
            return np.broadcast_to(x[:1] * g, x.shape)
        return x * g
