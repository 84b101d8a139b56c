"""Custom-signal vector: PeriodicWave oscillator -> compressor -> sum.

The PeriodicWave variant of the classic compressor sample-sum probe
(SNIPPETS.md #1 readout): a custom Fourier series — mixed sine and
cosine harmonics, so both math-backend code paths contribute — through
the DynamicsCompressor, fingerprint = sum of |samples| 4500..5000.
Analyser-free, so bit-stable under load like the DC vector.
"""
from __future__ import annotations

from ..webaudio import PeriodicWave
from .base import SampleSumVector

#: harmonic table of the probe waveform (index 0 = ignored DC terms); a
#: 1 kHz fundamental keeps 8 harmonics under Nyquist at both sample rates
_WAVE_REAL = (0.0, 0.10, 0.30, 0.00, 0.15, 0.00, 0.05, 0.00, 0.02)
_WAVE_IMAG = (0.0, 1.00, 0.00, 0.50, 0.00, 0.25, 0.00, 0.10, 0.00)
_FUNDAMENTAL_HZ = 1000.0


class CustomSignalVector(SampleSumVector):
    name = "custom"

    @staticmethod
    def _build(context):
        oscillator = context.create_oscillator()
        oscillator.set_periodic_wave(PeriodicWave(_WAVE_REAL, _WAVE_IMAG))
        oscillator.frequency.value = _FUNDAMENTAL_HZ
        compressor = context.create_dynamics_compressor()
        oscillator.connect(compressor).connect(context.destination)
        oscillator.start(0.0)
