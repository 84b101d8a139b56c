"""FFT vector (paper Fig. 2): oscillator -> analyser -> muted sink.

A 10 kHz sine into an AnalyserNode; the fingerprint is the frequency-bin
readout. The zero-gain sink mirrors real scripts (nothing audible) and
keeps the analyser on the rendered path.
"""
from __future__ import annotations

from .base import AnalyserVector


class FFTVector(AnalyserVector):
    name = "fft"

    @staticmethod
    def _build(context):
        oscillator = context.create_oscillator()
        oscillator.type = "sine"
        oscillator.frequency.value = 10000.0
        analyser = context.create_analyser()
        sink = context.create_gain()
        sink.gain.value = 0.0
        oscillator.connect(analyser).connect(sink).connect(context.destination)
        oscillator.start(0.0)
        return analyser
