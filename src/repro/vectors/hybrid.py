"""Hybrid vector (paper Fig. 2 variant): oscillator -> compressor ->
analyser. Combines the DC probe's nonlinearity with the FFT readout, so
it inherits both the compressor's stack sensitivity and the analyser's
load fickleness.
"""
from __future__ import annotations

from .base import AnalyserVector


class HybridVector(AnalyserVector):
    name = "hybrid"

    @staticmethod
    def _build(context):
        oscillator = context.create_oscillator()
        oscillator.type = "triangle"
        oscillator.frequency.value = 10000.0
        compressor = context.create_dynamics_compressor()
        analyser = context.create_analyser()
        sink = context.create_gain()
        sink.gain.value = 0.0
        oscillator.connect(compressor).connect(analyser).connect(sink) \
            .connect(context.destination)
        oscillator.start(0.0)
        return analyser
