"""User-Agent comparator vector: the navigator.userAgent string.

The zero-effort fingerprint every tracker already has; Table 3's third
comparator and the UA+Audio additive-value base. A pure function of the
device's UA identity (``repro.platform.browsers.UAStack``).
"""
from __future__ import annotations

from .base import AudioVector


class UserAgentVector(AudioVector):
    name = "useragent"
    kind = "comparator"
    uses_analyser = False
    stack_field = "ua"

    def _features(self, stack, jitter):
        return stack.ua_string()
