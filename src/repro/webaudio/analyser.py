"""AnalyserNode: Blackman window + pluggable FFT + dB conversion.

This is the node the paper's fickleness phenomenology lives in: the
windowed frames pass through a jitter transform (denormal-flush /
fused-multiply / float32-precision sub-paths) and the readout window can
be shifted by a load-dependent timing bucket — so the same stack
produces different frequency data under different load states, while
the DC vector (which never touches the analyser) stays bit-stable.

The readout is where batch rows diverge, and it is the only place jitter
enters the engine: the render loop is jitter-independent, so a batched
render accumulates one shared history, and
``get_float_frequency_data_batch`` applies each row's jitter path
(readout offset and transform), finishing with ONE batched FFT over the
rows — the FFT kernel's per-stage Python overhead is paid once per batch
instead of once per class. ``AudioVector.render_batch`` sends one row per
distinct path, so the readout keeps no dedup of its own. An active
profiler gets that FFT's time under ``fft:<backend>``; the readout runs
after ``start_rendering_batch`` returns, so no node's time includes it.
"""
from __future__ import annotations

import time

import numpy as np

from ..obs.profiler import current_node_profiler
from .node import AudioNode, mix_to_channels

_VALID_FFT_SIZES = {2 ** k for k in range(5, 16)}


class AnalyserNode(AudioNode):
    def __init__(self, context):
        super().__init__(context)
        self._fft_size = 2048
        self._history: list[np.ndarray] = []  # (B, n) mono blocks

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
        return block  # pass-through

    def process_buffer(self, inputs, length):
        # the readout concatenates history along the frame axis, so one
        # whole-buffer append holds the same bytes as per-quantum appends.
        # Fused buffers are write-once, so the mono view is stored uncopied
        # — a row-uniform (broadcast) input stays one row through the
        # downmix and the readout
        block = inputs[0]
        self._history.append(mix_to_channels(block, 1)[:, 0, :])
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
        for b, offset in enumerate(offsets):
            end = max(0, row.shape[0] - offset)
            start = end - size
            if start < 0:
                out[b] = np.concatenate([np.zeros(-start), row[:end]])
            else:
                out[b] = row[start:end]
        return out

    def _blackman(self, math) -> np.ndarray:
        n = np.arange(self._fft_size, dtype=np.float64)
        phase = 2.0 * np.pi * n / self._fft_size
        return 0.42 - 0.5 * math.cos(phase) + 0.08 * math.cos(2.0 * phase)

    def get_float_frequency_data_batch(self, jitters) -> np.ndarray:
        """The frequency readout: ``jitters[b]`` is row b's JitterPath
        (None for the reference path). Returns (B, bins) dB data, one row
        per jitter given, repeats included.

        The render loop is jitter-independent, so every history row holds
        the same values and readouts only diverge here; a row's FFT never
        depends on which other rows are present, so each row equals the
        path read alone.

        The readout is not smoothed over time: an offline context is read
        once, after rendering, and the Web Audio spec returns the same
        data to a second call in the same render quantum.
        """
        if len(jitters) != self.context.batch_size:
            raise ValueError(
                f"expected {self.context.batch_size} jitter entries, "
                f"got {len(jitters)}")
        cfg = self.context.config
        math = cfg.math
        frames = self._time_domain_batch(
            [j.readout_offset if j is not None else 0 for j in jitters]
        ) * self._blackman(math)
        for row, jitter in enumerate(jitters):
            if jitter is not None:
                frames[row] = jitter.transform(frames[row])
        profiler = current_node_profiler()
        if profiler is not None:
            start = time.perf_counter()
        spectrum = cfg.fft.fft(frames)[..., : self.frequency_bin_count]
        if profiler is not None:
            # attribute the transform itself to its backend, so hot-node
            # reports split Analyser bookkeeping from FFT kernel time
            profiler.add(f"fft:{cfg.fft.name}", time.perf_counter() - start)
        magnitude = np.abs(spectrum) / self._fft_size
        return 20.0 * math.log10(np.maximum(magnitude, 1e-40))
