"""Engine configuration: the pluggable backends a render runs against.

``repro.webaudio`` depends only on NumPy. The platform layer
(``repro.platform``) builds richer configs (ulp-perturbed math backends,
alternative FFTs, compressor tuning forks) and passes them in here; the
engine itself only duck-types against them. Jitter is not configuration:
a render is jitter-independent, and each jitter path is applied at the
analyser readout (``AnalyserNode.get_float_frequency_data``).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fft import FFTBackend, NumpyFFT


class NumpyMath:
    """Reference math library: raw NumPy ufuncs, no perturbation."""

    name = "numpy"

    def sin(self, x):
        return np.sin(x)

    def cos(self, x):
        return np.cos(x)

    def exp(self, x):
        return np.exp(x)

    def log10(self, x):
        return np.log10(x)

    def pow(self, x, y):
        return np.power(x, y)

    def tanh(self, x):
        return np.tanh(x)


@dataclass(frozen=True)
class CompressorParams:
    """DynamicsCompressorNode tuning (spec defaults; variants per stack)."""

    threshold_db: float = -24.0
    knee_db: float = 30.0
    ratio: float = 12.0
    attack_s: float = 0.003
    release_s: float = 0.25
    makeup_exponent: float = 0.6


@dataclass
class EngineConfig:
    """Everything a render's numeric output depends on, besides the graph."""

    math: object = field(default_factory=NumpyMath)
    fft: FFTBackend = field(default_factory=NumpyFFT)
    compressor: CompressorParams = field(default_factory=CompressorParams)

    @classmethod
    def default(cls) -> "EngineConfig":
        return cls()
