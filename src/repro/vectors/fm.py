"""FM vector: frequency-swept oscillator -> compressor -> analyser.

A sine chirp built from AudioParam automation (set + linear ramp across
the whole buffer), compressed, then read through the analyser. The
automated frequency changes from block to block, and with it the
harmonic count; the oscillator's whole-buffer kernel keeps that block
structure (per-block phase sums, one series per distinct count). This
is the battery's one automated graph, so its fused == quantum tests
guard the automated-oscillator path.
"""
from __future__ import annotations

from .base import AnalyserVector

_SWEEP_FROM_HZ = 4000.0
_SWEEP_TO_HZ = 9000.0


class FMVector(AnalyserVector):
    name = "fm"

    @staticmethod
    def _build(context):
        oscillator = context.create_oscillator()
        oscillator.type = "sine"
        sweep_end = context.length / context.sample_rate
        oscillator.frequency.set_value_at_time(_SWEEP_FROM_HZ, 0.0)
        oscillator.frequency.linear_ramp_to_value_at_time(_SWEEP_TO_HZ,
                                                          sweep_end)
        compressor = context.create_dynamics_compressor()
        analyser = context.create_analyser()
        sink = context.create_gain()
        sink.gain.value = 0.0
        oscillator.connect(compressor).connect(analyser).connect(sink) \
            .connect(context.destination)
        oscillator.start(0.0)
        return analyser
