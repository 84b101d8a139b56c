"""AnalyserNode: Blackman window + pluggable FFT + dB conversion.

This is the node the paper's fickleness phenomenology lives in: the
windowed frames pass through a jitter transform (denormal-flush /
fused-multiply / float32-precision sub-paths) and the readout window can
be shifted by a load-dependent timing bucket — so the same stack
produces different frequency data under different load states, while
the DC vector (which never touches the analyser) stays bit-stable.

The readout is the only place jitter enters the engine: a render is
jitter-independent, so it accumulates one history, and
``get_float_frequency_data(jitters)`` reads one row per jitter path from
it (readout offset and transform), finishing with ONE FFT over the rows
— the FFT kernel's per-stage Python overhead is paid once per render
instead of once per path. ``AudioVector.render_batch`` sends one jitter
per distinct path, so the readout keeps no dedup of its own. An active
profiler gets that FFT's CPU time under ``fft:<backend>``; the readout runs
after ``start_rendering`` returns, so no node's time includes it.
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
        self._history: list[np.ndarray] = []  # (n,) mono blocks

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
        self._history.append(mix_to_channels(block, 1)[0].copy())
        return block  # pass-through

    def process_buffer(self, inputs, length):
        # the readout concatenates history along the frame axis, so one
        # whole-buffer append holds the same bytes as per-quantum appends.
        # Fused buffers are write-once, so the mono view is stored uncopied
        block = inputs[0]
        self._history.append(mix_to_channels(block, 1)[0])
        return block

    # -- readout ------------------------------------------------------------
    def _time_domain(self, offsets) -> np.ndarray:
        """One time-domain window per offset: row b's window ends
        ``offsets[b]`` frames before the history's end. Returns
        (len(offsets), fft_size)."""
        size = self._fft_size
        history = (np.concatenate(self._history) if self._history
                   else np.zeros(0, dtype=np.float64))
        out = np.empty((len(offsets), size), dtype=np.float64)
        for b, offset in enumerate(offsets):
            end = max(0, history.shape[0] - offset)
            start = end - size
            if start < 0:
                out[b] = np.concatenate([np.zeros(-start), history[:end]])
            else:
                out[b] = history[start:end]
        return out

    def _blackman(self, math) -> np.ndarray:
        n = np.arange(self._fft_size, dtype=np.float64)
        phase = 2.0 * np.pi * n / self._fft_size
        return 0.42 - 0.5 * math.cos(phase) + 0.08 * math.cos(2.0 * phase)

    def get_float_frequency_data(self, jitters) -> np.ndarray:
        """The frequency readout: one row of dB data per JitterPath in
        ``jitters`` (None for the reference path), repeats included.
        Returns (len(jitters), bins).

        The render is jitter-independent, so readouts only diverge here;
        a row's FFT never depends on which other rows are present, so
        each row equals the path read alone.

        The readout is not smoothed over time: an offline context is read
        once, after rendering, and the Web Audio spec returns the same
        data to a second call in the same render quantum.
        """
        cfg = self.context.config
        math = cfg.math
        frames = self._time_domain(
            [j.readout_offset if j is not None else 0 for j in jitters]
        ) * self._blackman(math)
        for row, jitter in enumerate(jitters):
            if jitter is not None:
                frames[row] = jitter.transform(frames[row])
        profiler = current_node_profiler()
        if profiler is not None:
            start = time.thread_time()
        spectrum = cfg.fft.fft(frames)[..., : self.frequency_bin_count]
        if profiler is not None:
            # attribute the transform itself to its backend, so hot-node
            # reports split Analyser bookkeeping from FFT kernel time
            profiler.add(f"fft:{cfg.fft.name}", time.thread_time() - start)
        magnitude = np.abs(spectrum) / self._fft_size
        return 20.0 * math.log10(np.maximum(magnitude, 1e-40))
