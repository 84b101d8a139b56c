"""Math-library variants: the named builds the population draws from.

Real platforms differ in the last bits of sin/exp/pow/tanh (different
libm builds, SIMD paths, polynomial orders). Each build here is a
``MathBackend`` (``repro.webaudio.config``): NumPy's result moved by a
few ulps, which after the compressor's nonlinearity is exactly the kind
of divergence that separates real browser fingerprints.
"""
from __future__ import annotations

from ..webaudio.config import MathBackend

#: Named builds, one per (OS, toolchain) family the population model uses.
MATH_BACKENDS = {
    backend.name: backend
    for backend in (
        MathBackend("ucrt", 0),          # Windows universal CRT (reference)
        MathBackend("glibc", 1),         # Linux glibc 2.3x
        MathBackend("glibc-avx2", 2),    # glibc with vectorized SIMD path
        MathBackend("apple-libm", -2),   # macOS system libm
        MathBackend("bionic", 3),        # Android bionic
        MathBackend("musl", 5),          # musl-based builds
        MathBackend("ucrt-sse2", 4),     # older Windows SSE2 path
        MathBackend("fdlibm", -4),       # Firefox's fdlibm-derived fallback
    )
}


def get_math_backend(name: str) -> MathBackend:
    try:
        return MATH_BACKENDS[name]
    except KeyError:
        raise KeyError(f"unknown math backend {name!r}; have {sorted(MATH_BACKENDS)}") from None
