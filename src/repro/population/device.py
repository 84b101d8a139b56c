"""Device: one sampled user's render-relevant state."""
from __future__ import annotations

from dataclasses import dataclass

from ..platform.browsers import UAStack
from ..platform.canvas_stack import CanvasStack
from ..platform.font_stack import FontStack
from ..platform.stacks import AudioStack


@dataclass(frozen=True)
class Device:
    user_id: str
    stack: AudioStack
    os: str
    browser: str
    load: float  # per-user CPU load level in [0, 1), drives fickleness
    #: comparator-vector identities (None only for hand-built devices in
    #: audio-only tests; the sampler always fills them)
    ua: UAStack | None = None
    canvas: CanvasStack | None = None
    fonts: FontStack | None = None

    def describe(self, key_of=None) -> dict:
        """The device's user record. ``key_of(stack)`` gives each stack's
        key (default ``cache_key_of``); a caller describing devices that
        share stack objects may pass a memo of it."""
        key_of = key_of or cache_key_of
        # the exact load float: JSON round-trips float64 via repr, so a
        # device rebuilt from its description is bit-identical (lossy
        # round(load, 6) here used to break that — pinned by test)
        return {
            "id": self.user_id,
            "stack_key": key_of(self.stack),
            "os": self.os,
            "browser": self.browser,
            "load": self.load,
            "ua_key": key_of(self.ua),
            "canvas_key": key_of(self.canvas),
            "fonts_key": key_of(self.fonts),
        }


def cache_key_of(stack) -> str | None:
    """A stack's ``cache_key()``; None for a comparator stack a hand-built
    device left out."""
    return stack.cache_key() if stack is not None else None
