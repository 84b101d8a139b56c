"""repro.platform — the simulated diversity source.

A fingerprint is a pure function of the *platform stack* (math backend,
FFT backend, compressor variant, sample rate) plus the per-iteration
jitter sub-path — never of the user. That purity is what the
equivalence-class render cache exploits (see DESIGN.md).
"""

from .mathlib import MathBackend, MATH_BACKENDS, get_math_backend  # noqa: F401
from .stacks import (AudioStack, COMPRESSOR_VARIANTS,  # noqa: F401
                     default_stack_pool)
from .jitter import (  # noqa: F401
    REFERENCE_PATH,
    JitterPath,
    parse_path,
    sample_path,
    sample_load,
)
from .browsers import UAStack, sample_ua  # noqa: F401
from .canvas_stack import CanvasStack, sample_canvas  # noqa: F401
from .font_stack import FontStack, sample_fonts  # noqa: F401

__all__ = [
    "MathBackend",
    "MATH_BACKENDS",
    "get_math_backend",
    "AudioStack",
    "COMPRESSOR_VARIANTS",
    "default_stack_pool",
    "REFERENCE_PATH",
    "JitterPath",
    "parse_path",
    "sample_path",
    "sample_load",
    "UAStack",
    "sample_ua",
    "CanvasStack",
    "sample_canvas",
    "FontStack",
    "sample_fonts",
]
