"""AnalyserNode: Blackman window + pluggable FFT + dB conversion.

This is the node the paper's fickleness phenomenology lives in: the
windowed frames pass through a jitter transform (denormal-flush /
fused-multiply / float32-precision sub-paths) and the readout window can
be shifted by a load-dependent timing bucket — so the same stack
produces different frequency data under different load states, while
the DC vector (which never touches the analyser) stays bit-stable.

The readout is where batch rows diverge: the quantum loop itself is
jitter-independent, so a batched render accumulates one shared history
per row and then applies each row's readout offset and jitter transform
individually, finishing with ONE batched FFT over all rows — the FFT
backends' per-stage Python overhead (the dominant cost for the
recursive split-radix kernel) is paid once per batch instead of once
per class.
"""
from __future__ import annotations

import time

import numpy as np

from ..obs.profiler import current_node_profiler
from .node import AudioNode, mix_to_channels

_VALID_FFT_SIZES = {2 ** k for k in range(5, 16)}


class AnalyserNode(AudioNode):
    fusible = True

    def __init__(self, context):
        super().__init__(context)
        self._fft_size = 2048
        self.smoothing_time_constant = 0.8
        self.min_decibels = -100.0
        self.max_decibels = -30.0
        self._history: list[np.ndarray] = []  # (B, n) mono blocks
        self._history_len = 0
        self._previous_smoothed: np.ndarray | None = None  # (B, bins)

    @property
    def fft_size(self) -> int:
        return self._fft_size

    @fft_size.setter
    def fft_size(self, value: int) -> None:
        if value not in _VALID_FFT_SIZES:
            raise ValueError(f"fftSize must be a power of two in [32, 32768], got {value}")
        self._fft_size = value

    @property
    def frequency_bin_count(self) -> int:
        return self._fft_size // 2

    def process_block(self, inputs, frame0, n):
        block = inputs[0]
        self._history.append(mix_to_channels(block, 1)[:, 0, :].copy())
        self._history_len += n
        return block  # pass-through

    def process_buffer(self, inputs, length):
        # the readout concatenates history along the frame axis, so one
        # whole-buffer append holds the same bytes as per-quantum appends;
        # smoothing state only advances at readout, never during rendering.
        # Fused buffers are write-once, so the mono view is stored uncopied
        # — a row-uniform (broadcast) input stays one row through the
        # downmix and the readout
        block = inputs[0]
        self._history.append(mix_to_channels(block, 1)[:, 0, :])
        self._history_len += length
        return block

    # -- readout ------------------------------------------------------------
    def _time_domain_batch(self, offsets) -> np.ndarray:
        """Per-row time-domain windows: row b's window is shifted back by
        ``offsets[b]`` frames. Returns (B, fft_size)."""
        size = self._fft_size
        # the history rows hold identical values (the render loop is
        # jitter-independent), so only row 0 is concatenated: each row's
        # window is an exact slice of it, and a batch-uniform history
        # stays one row instead of materializing B
        row = (np.concatenate([block[0] for block in self._history])
               if self._history else np.zeros(0, dtype=np.float64))
        out = np.empty((len(offsets), size), dtype=np.float64)
        # offsets repeat heavily (a handful of timing buckets), so slice
        # once per distinct offset and assign to every row that uses it
        by_offset: dict[int, list[int]] = {}
        for b, offset in enumerate(offsets):
            by_offset.setdefault(int(offset), []).append(b)
        for offset, idx in by_offset.items():
            end = max(0, row.shape[0] - offset)
            start = end - size
            if start < 0:
                window = np.concatenate([np.zeros(-start), row[:end]])
            else:
                window = row[start:end]
            out[idx] = window
        return out

    def get_float_time_domain_data(self) -> np.ndarray:
        return self._time_domain_batch([int(self.context.config.readout_offset)]
                                       * self.context.batch_size)[0]

    def _blackman(self, math) -> np.ndarray:
        n = np.arange(self._fft_size, dtype=np.float64)
        phase = 2.0 * np.pi * n / self._fft_size
        return 0.42 - 0.5 * math.cos(phase) + 0.08 * math.cos(2.0 * phase)

    def _frequency_data(self, offsets, transforms) -> np.ndarray:
        """The shared readout core: per-row window + jitter, batched FFT.

        ``offsets[b]`` / ``transforms[b]`` are row b's readout shift and
        jitter transform (None = identity). Returns (B, bins) dB data.
        The jitter transforms are applied per row on 1-D slices, so each
        row sees exactly the arithmetic the single-render path performs.
        """
        cfg = self.context.config
        math = cfg.math
        # Rows sharing (offset, transform) produce byte-identical FFT
        # inputs: the render loop is jitter-independent, so every history
        # row holds the same values and readouts only diverge here. Window
        # + transform + FFT run once per *distinct* pair, then scatter —
        # per-row FFT results never depend on which other rows are present
        # (the batched-equals-serial invariant), so the bytes are exact.
        # Bound methods compare by receiver *identity*, so the dedup key
        # unwraps them to (__func__, __self__): JitterPath is a frozen
        # dataclass, giving value equality across parsed instances.
        def _tkey(t):
            func = getattr(t, "__func__", None)
            return (func, t.__self__) if func is not None else t

        inverse = None
        try:
            uniq: dict = {}
            keyed = [(int(o), _tkey(t), t) for o, t in zip(offsets, transforms)]
            inverse_idx = [uniq.setdefault(k[:2], (len(uniq), k[2]))[0]
                           for k in keyed]
            if len(uniq) < len(offsets):
                offsets = [k[0] for k in uniq]
                transforms = [v[1] for v in uniq.values()]
                inverse = np.asarray(inverse_idx, dtype=np.intp)
        except TypeError:
            pass  # unhashable custom transform: render every row
        frames = self._time_domain_batch(offsets) * self._blackman(math)
        if any(t is not None for t in transforms):
            # apply each distinct transform to all its rows at once: the
            # transforms are elementwise, so a (rows, n) application holds
            # the same floats as row-at-a-time calls
            groups: dict = {}
            try:
                for b, t in enumerate(transforms):
                    if t is not None:
                        groups.setdefault(t, []).append(b)
            except TypeError:
                groups = None  # unhashable custom transform
            if groups is not None:
                for t, idx in groups.items():
                    frames[idx] = t(frames[idx])
            else:
                frames = np.stack([
                    t(frames[b]) if t is not None else frames[b]
                    for b, t in enumerate(transforms)
                ])
        profiler = current_node_profiler()
        if profiler is None:
            spectrum = cfg.fft.fft(frames)[..., : self.frequency_bin_count]
        else:
            # attribute the transform itself to its backend, so hot-node
            # reports split Analyser bookkeeping from FFT kernel time
            start = time.perf_counter()
            spectrum = cfg.fft.fft(frames)[..., : self.frequency_bin_count]
            profiler.add(f"fft:{cfg.fft.name}", time.perf_counter() - start)
        magnitude = np.abs(spectrum) / self._fft_size
        if inverse is not None:
            magnitude = magnitude[inverse]

        s = self.smoothing_time_constant
        if self._previous_smoothed is not None and 0.0 < s < 1.0:
            magnitude = s * self._previous_smoothed + (1.0 - s) * magnitude
        self._previous_smoothed = magnitude

        return 20.0 * math.log10(np.maximum(magnitude, 1e-40))

    def get_float_frequency_data(self) -> np.ndarray:
        """Single readout (batch size 1) driven by the context config's
        jitter fields — the classic per-class render path."""
        cfg = self.context.config
        if self.context.batch_size != 1:
            raise ValueError(
                "get_float_frequency_data() requires batch_size == 1; "
                "use get_float_frequency_data_batch() for batched contexts")
        return self._frequency_data([int(cfg.readout_offset)],
                                    [cfg.jitter_transform])[0]

    def get_float_frequency_data_batch(self, jitters) -> np.ndarray:
        """Batched readout: ``jitters[b]`` is row b's JitterPath (or None
        for the reference path). Returns (B, bins)."""
        if len(jitters) != self.context.batch_size:
            raise ValueError(
                f"expected {self.context.batch_size} jitter entries, "
                f"got {len(jitters)}")
        offsets = [j.readout_offset if j is not None else 0 for j in jitters]
        transforms = [j.transform if j is not None else None for j in jitters]
        return self._frequency_data(offsets, transforms)

    def get_byte_frequency_data(self) -> np.ndarray:
        db = self.get_float_frequency_data()
        scaled = 255.0 * (db - self.min_decibels) / (self.max_decibels - self.min_decibels)
        return np.clip(scaled, 0, 255).astype(np.uint8)
