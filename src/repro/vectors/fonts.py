"""Fonts comparator vector: the JS font-enumeration fingerprint.

Stands in for the width/height font-detection probe: the observable is
the set of installed font families, which ``repro.platform.font_stack``
models per device. Table 3's second comparator.
"""
from __future__ import annotations

from .base import AudioVector


class FontsVector(AudioVector):
    name = "fonts"
    kind = "comparator"
    uses_analyser = False
    stack_field = "fonts"

    def _features(self, stack, jitter):
        return "fonts-probe-v1;" + ",".join(stack.fonts)
