"""AudioParam with a vectorized automation timeline.

Supported events: setValueAtTime, linearRampToValueAtTime,
exponentialRampToValueAtTime, setTargetAtTime. Evaluation returns a whole
block of values at once (a-rate); there is no per-sample Python loop —
the only Python iteration is over the (few) events intersecting a block.
"""
from __future__ import annotations

import numpy as np

_SET, _LINEAR, _EXPONENTIAL, _TARGET = "set", "linear", "exponential", "target"


class AudioParam:
    def __init__(self, default_value: float, min_value: float = -np.inf,
                 max_value: float = np.inf):
        self.default_value = float(default_value)
        self.value = float(default_value)
        self.min_value = min_value
        self.max_value = max_value
        self._events: list[tuple[float, str, float, float]] = []  # (time, kind, value, extra)

    # -- timeline API -------------------------------------------------------
    def set_value_at_time(self, value: float, time: float) -> "AudioParam":
        self._insert(time, _SET, value, 0.0)
        return self

    def linear_ramp_to_value_at_time(self, value: float, time: float) -> "AudioParam":
        self._insert(time, _LINEAR, value, 0.0)
        return self

    def exponential_ramp_to_value_at_time(self, value: float, time: float) -> "AudioParam":
        if value == 0.0:
            raise ValueError("exponential ramp target must be non-zero")
        self._insert(time, _EXPONENTIAL, value, 0.0)
        return self

    def set_target_at_time(self, target: float, time: float, time_constant: float) -> "AudioParam":
        self._insert(time, _TARGET, target, time_constant)
        return self

    def _insert(self, time: float, kind: str, value: float, extra: float) -> None:
        self._events.append((float(time), kind, float(value), float(extra)))
        self._events.sort(key=lambda e: e[0])

    # -- evaluation ---------------------------------------------------------
    def values(self, frame0: int, n: int, sample_rate: float) -> np.ndarray:
        """Vectorized values for frames [frame0, frame0+n), clamped to
        ``[min_value, max_value]`` whether or not events exist."""
        if not self._events:
            value = min(max(self.value, self.min_value), self.max_value)
            return np.full(n, value, dtype=np.float64)

        t = (frame0 + np.arange(n, dtype=np.float64)) / sample_rate
        out = np.full(n, self.value, dtype=np.float64)

        # Anchor value/time before each event, in timeline order.
        anchor_v, anchor_t = self.value, 0.0
        events = self._events
        for i, (et, kind, ev, extra) in enumerate(events):
            next_t = events[i + 1][0] if i + 1 < len(events) else np.inf
            if kind == _SET:
                mask = (t >= et) & (t < next_t)
                out[mask] = ev
                anchor_v, anchor_t = ev, et
            elif kind in (_LINEAR, _EXPONENTIAL):
                # ramp from anchor to (ev, et), hold after until next event
                span = max(et - anchor_t, 1e-12)
                mask = (t >= anchor_t) & (t < et)
                if mask.any():
                    frac = (t[mask] - anchor_t) / span
                    if kind == _LINEAR:
                        out[mask] = anchor_v + (ev - anchor_v) * frac
                    else:
                        base = ev / anchor_v if anchor_v != 0.0 else 1.0
                        out[mask] = anchor_v * np.power(base, frac)
                hold = (t >= et) & (t < next_t)
                out[hold] = ev
                anchor_v, anchor_t = ev, et
            elif kind == _TARGET:
                mask = (t >= et) & (t < next_t)
                if mask.any():
                    out[mask] = ev + (anchor_v - ev) * np.exp(-(t[mask] - et) / max(extra, 1e-12))
                # anchor for the next event: evaluated at next_t (if finite)
                if np.isfinite(next_t):
                    anchor_v = ev + (anchor_v - ev) * np.exp(-(next_t - et) / max(extra, 1e-12))
                    anchor_t = next_t
        return np.clip(out, self.min_value, self.max_value)
