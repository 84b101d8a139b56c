"""Math JS comparator vector: transcendental outputs of the JS engine.

The Math-JS fingerprint the paper's Table 4/5 follow-up compares
against: call a fixed battery of Math functions and hash the exact
float64 results. The JS engine's math library is the same platform libm
our ``repro.platform.mathlib`` models, so the vector's stack is just the
device's math backend — which is exactly why Table 5 can attribute DC
diversity to causes Math JS cannot see (sample rate, compressor
variant): two devices with one math library share a Math JS fingerprint
but may still differ in DC.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..platform.mathlib import get_math_backend
from .base import AudioVector


@dataclass(frozen=True)
class MathProbe:
    """The comparator stack: only the math backend is fingerprintable."""

    math_backend: str

    def cache_key(self) -> str:
        return f"mathjs|{self.math_backend}"


class MathJSVector(AudioVector):
    name = "mathjs"
    kind = "comparator"
    uses_analyser = False
    stack_field = "stack"

    def stack_of(self, device):
        return MathProbe(super().stack_of(device).math_backend)

    def _features(self, stack, jitter):
        math = get_math_backend(stack.math_backend)
        # the classic probe battery: fixed inputs, exact float64 outputs
        return np.array([
            math.sin(1.0),
            math.sin(1.0e10),
            math.cos(10.0),
            math.cos(0.5),
            math.tanh(1.0),
            math.tanh(0.5),
            math.exp(1.0),
            math.log10(7.0),
            math.pow(np.pi, 50.0),
        ], dtype=np.float64)
