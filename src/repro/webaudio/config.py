"""Engine configuration: the pluggable backends a render runs against.

``repro.webaudio`` depends only on NumPy. The platform layer
(``repro.platform``) builds richer configs (its table of ulp-perturbed
math builds, alternative FFTs, compressor tuning forks) and passes them
in here. Jitter is not configuration: a render is jitter-independent,
and each jitter path is applied at the analyser readout
(``AnalyserNode.get_float_frequency_data``).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fft import FFTBackend, NumpyFFT

_ULP = 2.0 ** -52


@dataclass(frozen=True)
class MathBackend:
    """A math library build: NumPy's transcendentals, each result
    multiplied by ``1 + ulp_shift * 2**-52``, which moves its significand
    by about ``ulp_shift`` ulps. A zero shift returns the ufunc's result
    untouched; ``MathBackend()`` is that reference build."""

    name: str = "numpy"
    ulp_shift: int = 0

    def _perturb(self, y):
        if self.ulp_shift == 0:
            return y
        return y * (1.0 + self.ulp_shift * _ULP)

    def sin(self, x):
        return self._perturb(np.sin(x))

    def cos(self, x):
        return self._perturb(np.cos(x))

    def exp(self, x):
        return self._perturb(np.exp(x))

    def log10(self, x):
        return self._perturb(np.log10(x))

    def pow(self, x, y):
        return self._perturb(np.power(x, y))

    def tanh(self, x):
        return self._perturb(np.tanh(x))


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

    math: MathBackend = field(default_factory=MathBackend)
    fft: FFTBackend = field(default_factory=NumpyFFT)
    compressor: CompressorParams = field(default_factory=CompressorParams)

    @classmethod
    def default(cls) -> "EngineConfig":
        return cls()
