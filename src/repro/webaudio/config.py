"""Engine configuration: the pluggable backends a render runs against.

``repro.webaudio`` depends only on NumPy. The platform layer
(``repro.platform``) builds richer configs (ulp-perturbed math backends,
alternative FFTs, compressor tuning forks) and passes them in here; the
engine itself only duck-types against them. Jitter is not configuration:
a render is jitter-independent, and each batch row's jitter path is
applied at the analyser readout (``get_float_frequency_data_batch``).

One render-dispatch knob lives here: ``render_path``, the execution
strategy the context uses. ``"fused"`` (the default) renders fusible
graphs whole-buffer and falls back to the quantum loop for the rest;
``"quantum"`` always runs the 128-frame block loop. The fused path is
bit-identical to the quantum loop, so this knob can never change an eFP
— it is pure cost control and is deliberately *not* part of any cache
key. ``$REPRO_RENDER_PATH`` overrides the default (and is inherited by
pool workers).
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .fft import FFTBackend, NumpyFFT

RENDER_PATHS = ("fused", "quantum")


def get_default_render_path() -> str:
    """The effective default render path: ``$REPRO_RENDER_PATH`` if it
    names a valid path, else ``"fused"``.

    Read at ``EngineConfig`` construction time (once per render), so the
    env var also reaches forked/spawned pool workers for free.
    """
    env = os.environ.get("REPRO_RENDER_PATH", "").strip().lower()
    return env if env in RENDER_PATHS else "fused"


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
    #: execution strategy: "fused" | "quantum" (bit-identical either way)
    render_path: str = field(default_factory=get_default_render_path)

    def __post_init__(self) -> None:
        if self.render_path not in RENDER_PATHS:
            raise ValueError(
                f"render_path must be one of {RENDER_PATHS}, got {self.render_path!r}")

    @classmethod
    def default(cls) -> "EngineConfig":
        return cls()
