"""ChannelMergerNode: each input port becomes one output channel."""
from __future__ import annotations

import numpy as np

from .node import AudioNode, mix_to_channels


class ChannelMergerNode(AudioNode):
    def __init__(self, context, number_of_inputs: int = 6):
        if not 1 <= number_of_inputs <= 32:
            raise ValueError("number_of_inputs must be in [1, 32]")
        self.number_of_inputs = int(number_of_inputs)
        super().__init__(context)

    def process_block(self, inputs, frame0, n):
        out = np.zeros((self.number_of_inputs, n), dtype=np.float64)
        for port, block in enumerate(inputs):
            out[port] = mix_to_channels(block, 1)[0]
        return out

    def process_buffer(self, inputs, length):
        # channel routing is stateless and elementwise in the frame axis:
        # the whole-buffer pass is the block pass with n == length
        return self.process_block(inputs, 0, length)
