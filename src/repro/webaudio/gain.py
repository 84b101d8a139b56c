"""GainNode: block multiply by an a-rate gain curve."""
from __future__ import annotations

from .node import AudioNode
from .param import AudioParam


class GainNode(AudioNode):
    def __init__(self, context):
        super().__init__(context)
        self.gain = AudioParam(1.0)

    def process_block(self, inputs, frame0, n):
        g = self.gain.values(frame0, n, self.context.sample_rate)
        return inputs[0] * g  # (n,) broadcasts over (channels, n)

    def process_buffer(self, inputs, length):
        # AudioParam.values evaluates each frame from its own absolute
        # time, so the whole-buffer curve holds the per-block floats
        # element for element, automation or not: one whole-buffer multiply
        return self.process_block(inputs, 0, length)
