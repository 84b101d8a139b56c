"""AudioNode base class: connections and channel mixing.

All rendering is batched: blocks are ``(B, channels, frames)`` arrays,
where the batch axis carries independent renders of the *same* graph
(one row per equivalence class differing only in jitter path). Every
mixing helper operates on the trailing two axes, so per-row results are
bit-identical to a ``B == 1`` render of that row alone — elementwise
ufuncs and fixed-length reductions do not change their evaluation order
when a leading axis is added.
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

        ``inputs[port]`` is the already-mixed (B, channels, n) array for
        that input port. Must return a (B, channels, n) array and operate
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


def batch_uniform(block: np.ndarray) -> bool:
    """True when every batch row of a (B, c, n) block is the same memory
    (a zero-stride broadcast view). Inside a render the batch rows only
    diverge at the analyser *readout*, so fused kernels use this to
    compute one row and broadcast — bit-identical to the full batch
    because no render op ever mixes rows (elementwise / last-axis only,
    the invariant the batched engine is built on)."""
    return block.ndim == 3 and block.shape[0] > 1 and block.strides[0] == 0


def mix_sources_uniform(blocks: list[np.ndarray], batch: int, n: int) -> np.ndarray:
    """``mix_sources`` that keeps row-uniform inputs row-uniform: when every
    source block is a batch broadcast, mix the single distinct row and
    broadcast the sum instead of materializing (B, c, n)."""
    if blocks and all(batch_uniform(b) for b in blocks):
        first = mix_sources([b[:1] for b in blocks], 1, n)
        return np.broadcast_to(first, (batch,) + first.shape[1:])
    if not blocks:
        return np.broadcast_to(np.zeros((1, 1, n), dtype=np.float64),
                               (batch, 1, n))
    return mix_sources(blocks, batch, n)


def mix_sources(blocks: list[np.ndarray], batch: int, n: int) -> np.ndarray:
    """Sum source outputs with mono up-mix, vectorized over the batch."""
    if not blocks:
        return np.zeros((batch, 1, n), dtype=np.float64)
    channels = max(b.shape[-2] for b in blocks)
    out = np.zeros((batch, channels, n), dtype=np.float64)
    for b in blocks:
        if b.shape[-2] == channels:
            out += b
        elif b.shape[-2] == 1:
            out += b  # broadcast mono across all channels
        else:
            out[:, : b.shape[-2]] += b
    return out


def mix_to_channels(block: np.ndarray, channels: int) -> np.ndarray:
    """Up/down-mix a (B, c, n) block to exactly ``channels`` channels.

    A row-uniform block is mixed as its single distinct row, then
    broadcast back to B rows: the same floats, computed once."""
    c = block.shape[-2]
    if c == channels:
        return block
    if batch_uniform(block):
        row = mix_to_channels(block[:1], channels)
        return np.broadcast_to(row, (block.shape[0],) + row.shape[1:])
    if c == 1:
        return np.repeat(block, channels, axis=-2)
    if channels == 1:
        return block.mean(axis=-2, keepdims=True)
    out = np.zeros((block.shape[0], channels, block.shape[-1]), dtype=np.float64)
    out[:, : min(c, channels)] = block[:, : min(c, channels)]
    return out
