"""Merged-signals vector: three oscillators -> merger -> compressor ->
analyser.

Three waveforms at different frequencies merged into one multi-channel
stream, compressed, then read through the AnalyserNode — the widest
graph in the battery. The fused path renders it like the others, each
node once over the whole buffer (fused == quantum is what the tests
pin). Inherits the analyser's load fickleness.
"""
from __future__ import annotations

from .base import AnalyserVector

#: (type, frequency) of the three merged sources
_SOURCES = (("sine", 1000.0), ("square", 2500.0), ("sawtooth", 6500.0))


class MergedSignalsVector(AnalyserVector):
    name = "merged"

    @staticmethod
    def _build(context):
        merger = context.create_channel_merger(len(_SOURCES))
        for port, (wave_type, freq) in enumerate(_SOURCES):
            oscillator = context.create_oscillator()
            oscillator.type = wave_type
            oscillator.frequency.value = freq
            oscillator.connect(merger, input=port)
            oscillator.start(0.0)
        compressor = context.create_dynamics_compressor()
        analyser = context.create_analyser()
        sink = context.create_gain()
        sink.gain.value = 0.0
        merger.connect(compressor).connect(analyser).connect(sink) \
            .connect(context.destination)
        return analyser
