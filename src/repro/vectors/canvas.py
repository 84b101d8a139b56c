"""Canvas comparator vector: the drawn-probe hash of the canvas stack.

Stands in for the fingerprintjs canvas probe (draw text + shapes, hash
``toDataURL``): the hash is a pure function of the device's canvas
render identity, which ``repro.platform.canvas_stack`` models. Used as
the high-diversity comparator in Table 3 and the Canvas+Audio
additive-value analysis.
"""
from __future__ import annotations

from .base import AudioVector


class CanvasVector(AudioVector):
    name = "canvas"
    kind = "comparator"
    uses_analyser = False
    stack_field = "canvas"

    def _features(self, stack, jitter):
        return stack.probe_payload()
