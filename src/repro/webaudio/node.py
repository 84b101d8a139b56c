"""AudioNode base class: connections and channel mixing.

A render renders one signal: blocks are ``(channels, frames)`` arrays.
Jitter enters only at the analyser readout, so a render has nothing that
differs between a group's jitter paths, and the readout alone carries a
row per path (see ``AnalyserNode.get_float_frequency_data``).
"""
from __future__ import annotations

import numpy as np


class AudioNode:
    number_of_inputs = 1
    number_of_outputs = 1

    def __init__(self, context):
        self.context = context
        # _inputs[port] = list of source nodes feeding that input port
        self._inputs: list[list[AudioNode]] = [[] for _ in range(self.number_of_inputs)]
        context._register(self)

    def connect(self, destination: "AudioNode", output: int = 0, input: int = 0) -> "AudioNode":
        if destination.context is not self.context:
            raise ValueError("cannot connect nodes from different contexts")
        if not 0 <= input < destination.number_of_inputs:
            raise IndexError(f"input index {input} out of range for {type(destination).__name__}")
        destination._inputs[input].append(self)
        return destination

    def sources(self) -> list["AudioNode"]:
        return [s for port in self._inputs for s in port]

    # -- rendering ----------------------------------------------------------
    def process_block(self, inputs: list[np.ndarray], frame0: int, n: int) -> np.ndarray:
        """Produce this node's output for frames [frame0, frame0+n).

        ``inputs[port]`` is the already-mixed (channels, n) array for
        that input port. Must return a (channels, n) array and operate
        on whole blocks (no per-sample loops).
        """
        raise NotImplementedError

    def process_buffer(self, inputs: list[np.ndarray], length: int) -> np.ndarray:
        """Fused loop: produce this node's output for the *entire* buffer.

        Same contract as ``process_block`` with ``frame0 == 0`` and
        ``n == length``, but implementations must reproduce the quantum
        loop's floating-point results bit for bit — nodes with
        block-granular state (oscillator phase wrap and automated params,
        compressor envelope) keep that state's block structure internally
        while hoisting every elementwise stage to one whole-buffer pass.
        Every node type a context renders defines it.
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no whole-buffer kernel")


def mix_sources(blocks: list[np.ndarray], n: int) -> np.ndarray:
    """Sum source outputs with mono up-mix; silence when there are none."""
    if not blocks:
        return np.zeros((1, n), dtype=np.float64)
    channels = max(b.shape[0] for b in blocks)
    out = np.zeros((channels, n), dtype=np.float64)
    for b in blocks:
        if b.shape[0] in (channels, 1):
            out += b  # a mono block broadcasts across all channels
        else:
            out[: b.shape[0]] += b
    return out


def mix_to_channels(block: np.ndarray, channels: int) -> np.ndarray:
    """Up/down-mix a (c, n) block to exactly ``channels`` channels."""
    c = block.shape[0]
    if c == channels:
        return block
    if c == 1:
        return np.repeat(block, channels, axis=0)
    if channels == 1:
        return block.mean(axis=0, keepdims=True)
    out = np.zeros((channels, block.shape[1]), dtype=np.float64)
    out[: min(c, channels)] = block[: min(c, channels)]
    return out
