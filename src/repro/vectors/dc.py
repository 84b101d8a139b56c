"""DC vector (paper Fig. 1): oscillator -> dynamics compressor -> sum.

The classic fingerprintjs probe: a 10 kHz triangle wave through the
compressor, fingerprint = sum of |samples| 4500..5000 of the rendered
buffer. Never touches the analyser, so it is bit-stable under load —
Table 1's only perfectly stable vector.
"""
from __future__ import annotations

from .base import SampleSumVector


class DCVector(SampleSumVector):
    name = "dc"

    @staticmethod
    def _build(context):
        oscillator = context.create_oscillator()
        oscillator.type = "triangle"
        oscillator.frequency.value = 10000.0
        compressor = context.create_dynamics_compressor()
        oscillator.connect(compressor).connect(context.destination)
        oscillator.start(0.0)
