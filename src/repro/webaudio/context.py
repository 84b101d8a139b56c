"""OfflineAudioContext: the render loop.

A context renders one signal: every node produces ``(channels, frames)``
blocks. Jitter does not enter a render — it is applied at the analyser
readout, which reads one row per jitter path from the one rendered
history — so a (vector, stack) group's paths share one graph build and
one render pass (``AudioVector.render_batch``).

A render runs the fused loop: ``topological_order`` (``graph.py``)
orders the graph, raising ``ValueError`` on a cycle, then each node
renders the *entire* buffer in one ``process_buffer`` call (fan-in,
fan-out and ``AudioParam`` automation are all fine). ``_render_quantum``
is the 128-frame block loop, kept verbatim as the reference semantics
that tests compare the fused loop with, byte for byte: elementwise
stages are blocking-invariant, and block-granular state — the
compressor's envelope, an automated oscillator's per-block params —
keeps its block structure inside the kernels.

Each loop times a node's step, in the rendering thread's CPU seconds
(``time.thread_time``), only when ``current_node_profiler()`` is set;
the arithmetic is the same either way.
"""
from __future__ import annotations

import time

import numpy as np

from . import RENDER_QUANTUM_FRAMES
from ..obs.profiler import current_node_profiler
from .buffer import AudioBuffer
from .config import EngineConfig
from .graph import node_label, topological_order
from .node import AudioNode, mix_sources, mix_to_channels


class DestinationNode(AudioNode):
    def __init__(self, context, number_of_channels: int):
        self.channel_count = number_of_channels
        super().__init__(context)

    def process_block(self, inputs, frame0, n):
        return mix_to_channels(inputs[0], self.channel_count)

    def process_buffer(self, inputs, length):
        return mix_to_channels(inputs[0], self.channel_count)


class OfflineAudioContext:
    def __init__(self, number_of_channels: int, length: int, sample_rate: float,
                 config: EngineConfig | None = None):
        if length <= 0:
            raise ValueError("length must be positive")
        self.length = int(length)
        self.sample_rate = float(sample_rate)
        self.config = config if config is not None else EngineConfig.default()
        self._nodes: list[AudioNode] = []
        self._rendered: AudioBuffer | None = None
        self.destination = DestinationNode(self, int(number_of_channels))

    # -- node registry ------------------------------------------------------
    def _register(self, node: AudioNode) -> None:
        self._nodes.append(node)

    def create_oscillator(self):
        from .oscillator import OscillatorNode
        return OscillatorNode(self)

    def create_gain(self):
        from .gain import GainNode
        return GainNode(self)

    def create_channel_merger(self, number_of_inputs: int = 6):
        from .merger import ChannelMergerNode
        return ChannelMergerNode(self, number_of_inputs)

    def create_dynamics_compressor(self):
        from .compressor import DynamicsCompressorNode
        return DynamicsCompressorNode(self)

    def create_analyser(self):
        from .analyser import AnalyserNode
        return AnalyserNode(self)

    def create_script_processor(self, buffer_size: int = 256, script=None):
        from .script_processor import ScriptProcessorNode
        return ScriptProcessorNode(self, buffer_size, script)

    # -- rendering ----------------------------------------------------------
    def start_rendering(self) -> AudioBuffer:
        """Render once and return the (channels, length) buffer; later
        calls return the same buffer."""
        if self._rendered is None:
            self._rendered = AudioBuffer(
                self._render_fused(topological_order(self._nodes)),
                self.sample_rate)
        return self._rendered

    def _render_fused(self, order) -> np.ndarray:
        """One whole-buffer pass per node, in topological order.

        The per-block interpreter loop disappears entirely: the graph is
        walked once, each kernel sees the full (channels, length) signal,
        and an active profiler gets each node's time under the same
        labels as the quantum loop.

        One block is left to the quantum kernels: a final block of ONE
        frame. NumPy sums a (k, 1) array along k pairwise, but the same
        frame inside a (k, n > 1) array in order, so the oscillator's
        harmonic series and a downmix of 8 or more channels round
        differently in that block alone. The fused pass stops one frame
        short of such a buffer, and the last frame renders through
        ``process_block`` exactly as in the quantum loop.
        """
        quantum = RENDER_QUANTUM_FRAMES
        tail = 1 if self.length > quantum and self.length % quantum == 1 else 0
        length = self.length - tail
        buffer_out: dict[AudioNode, np.ndarray] = {}
        profiler = current_node_profiler()
        for node in order:
            if profiler is not None:
                start = time.thread_time()
            ins = [mix_sources([buffer_out[s] for s in port], length)
                   for port in node._inputs]
            buffer_out[node] = node.process_buffer(ins, length)
            if profiler is not None:
                profiler.add(node_label(node), time.thread_time() - start)
        out = buffer_out[self.destination]
        if tail:
            block_out: dict[AudioNode, np.ndarray] = {}
            for node in order:
                ins = [mix_sources([block_out[s] for s in port], tail)
                       for port in node._inputs]
                block_out[node] = node.process_block(ins, length, tail)
            out = np.concatenate([out, block_out[self.destination]], axis=-1)
        return out

    def _render_quantum(self) -> np.ndarray:
        """The 128-frame-quantum block loop — the reference semantics the
        fused loop reproduces byte for byte. Renders run the fused loop;
        tests call this one directly to compare the two."""
        order = topological_order(self._nodes)
        channels = self.destination.channel_count
        out = np.zeros((channels, self.length), dtype=np.float64)
        quantum = RENDER_QUANTUM_FRAMES
        block_out: dict[AudioNode, np.ndarray] = {}
        profiler = current_node_profiler()
        for frame0 in range(0, self.length, quantum):
            n = min(quantum, self.length - frame0)
            block_out.clear()
            for node in order:
                if profiler is not None:
                    start = time.thread_time()
                ins = [mix_sources([block_out[s] for s in port], n)
                       for port in node._inputs]
                block_out[node] = node.process_block(ins, frame0, n)
                if profiler is not None:
                    profiler.add(node_label(node), time.thread_time() - start)
            out[:, frame0:frame0 + n] = block_out[self.destination][:, :n]
        return out
