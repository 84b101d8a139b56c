"""AM vector: carrier -> ScriptProcessor ring modulator -> compressor ->
analyser.

The ScriptProcessorNode path: a 10 kHz sine carrier amplitude-modulated
by a script callback — the stand-in for an ``onaudioprocess`` JS handler
whose modulator LFO runs through JS ``Math`` (the stack's math backend),
so the script itself leaks the math library into the samples. The
modulated signal then takes the compressor + analyser readout, so the
vector is fickle under load like the other analyser vectors.
"""
from __future__ import annotations

from .base import AnalyserVector

_CARRIER_HZ = 10000.0
_MODULATOR_HZ = 997.0  # prime, so the sidebands avoid the carrier's bins
_TWO_PI = 6.283185307179586


def _am_script(samples, t, math):
    """y[i] = x[i] * (0.5 + 0.5 sin(2 pi f_m t[i])) — elementwise in the
    frame axis, as the ScriptProcessorNode determinism contract requires."""
    return samples * (0.5 + 0.5 * math.sin(_TWO_PI * _MODULATOR_HZ * t))


class AMVector(AnalyserVector):
    name = "am"

    @staticmethod
    def _build(context):
        oscillator = context.create_oscillator()
        oscillator.type = "sine"
        oscillator.frequency.value = _CARRIER_HZ
        modulator = context.create_script_processor(256, _am_script)
        compressor = context.create_dynamics_compressor()
        analyser = context.create_analyser()
        sink = context.create_gain()
        sink.gain.value = 0.0
        oscillator.connect(modulator).connect(compressor).connect(analyser) \
            .connect(sink).connect(context.destination)
        oscillator.start(0.0)
        return analyser
