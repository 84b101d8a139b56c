"""OscillatorNode: band-limited additive synthesis through the stack's
math backend, with no per-sample loops: the quantum loop evaluates one
128-frame block at a time, the fused kernel the whole buffer at once.

Harmonic series (all through math.sin so ulp-level library differences
propagate into every waveform):
  sine      k = 1
  square    odd k,  4/pi * sin(k w t)/k
  sawtooth  all k,  2/pi * (-1)^{k+1} sin(k w t)/k
  triangle  odd k,  8/pi^2 * (-1)^{(k-1)/2} sin(k w t)/k^2
The series is truncated at the Nyquist frequency (band-limiting), exactly
like browsers' wavetable oscillators.
"""
from __future__ import annotations

import numpy as np

from . import RENDER_QUANTUM_FRAMES
from .node import AudioNode
from .param import AudioParam

_MAX_HARMONICS = 128


def _harmonic_count(nyquist: float, fundamental: float) -> int:
    """How many harmonics the band-limited series of ``fundamental`` has
    room for below ``nyquist`` (0 for a non-positive fundamental, which
    renders silence). A series depends on its fundamental only through
    this count, so blocks with equal counts synthesize the same series."""
    if fundamental <= 0:
        return 0
    return min(_MAX_HARMONICS, max(1, int(nyquist / fundamental)))


class PeriodicWave:
    """Custom-waveform Fourier coefficients (Web Audio ``PeriodicWave``).

    ``real[k]``/``imag[k]`` are the cosine/sine amplitudes of harmonic
    ``k``; index 0 is ignored exactly as the spec ignores the DC terms.
    Coefficients are copied and frozen at construction, so a wave object
    is a stable identity: the same wave always synthesizes the same
    floats. Normalization is NOT applied (the
    ``disableNormalization=true`` semantics) — fingerprinting probes want
    the raw series, and normalizing would couple every coefficient to a
    render-dependent peak scan.
    """

    __slots__ = ("real", "imag")

    def __init__(self, real, imag):
        real = np.array(real, dtype=np.float64, copy=True)
        imag = np.array(imag, dtype=np.float64, copy=True)
        if real.ndim != 1 or imag.ndim != 1:
            raise ValueError("PeriodicWave coefficients must be 1-D arrays")
        if real.shape != imag.shape:
            raise ValueError(
                f"PeriodicWave real/imag lengths differ: "
                f"{real.shape[0]} != {imag.shape[0]}")
        if real.shape[0] < 2:
            raise ValueError("PeriodicWave needs at least one harmonic "
                             "(index 0 carries the ignored DC terms)")
        real.flags.writeable = False
        imag.flags.writeable = False
        self.real = real
        self.imag = imag


class OscillatorNode(AudioNode):
    number_of_inputs = 0

    def __init__(self, context):
        super().__init__(context)
        self.type = "sine"
        self.frequency = AudioParam(440.0, min_value=-context.sample_rate / 2,
                                    max_value=context.sample_rate / 2)
        self.detune = AudioParam(0.0)
        self._start_frame: int | None = None
        self._stop_frame: int | None = None
        self._phase = 0.0  # radians, carried across blocks
        self._periodic_wave: PeriodicWave | None = None

    def start(self, when: float = 0.0) -> None:
        self._start_frame = int(round(when * self.context.sample_rate))

    def stop(self, when: float) -> None:
        self._stop_frame = int(round(when * self.context.sample_rate))

    def set_periodic_wave(self, wave: PeriodicWave) -> None:
        """Switch to the custom waveform ``wave`` (type becomes "custom")."""
        if not isinstance(wave, PeriodicWave):
            raise TypeError("set_periodic_wave expects a PeriodicWave")
        self._periodic_wave = wave
        self.type = "custom"

    def _custom_series(self, nyquist: float, fundamental: float):
        """Band-limited (orders, sin_amps, cos_amps) of the custom wave."""
        wave = self._periodic_wave
        if wave is None:
            raise ValueError(
                'oscillator type "custom" requires set_periodic_wave()')
        count = _harmonic_count(nyquist, fundamental)
        if count == 0:
            zero = np.array([0.0])
            return np.array([1.0]), zero, zero
        kmax = min(count, wave.real.shape[0] - 1)
        orders = np.arange(1, kmax + 1, dtype=np.float64)
        return orders, wave.imag[1:kmax + 1], wave.real[1:kmax + 1]

    def _synthesize(self, math, phases: np.ndarray, nyquist: float,
                    fundamental: float) -> np.ndarray:
        """Evaluate the band-limited series on ``phases`` through the math
        backend. Elementwise per frame with a fixed per-frame reduction
        tree, so the result is blocking-invariant: the fused whole-buffer
        call produces exactly the floats the per-block calls produce.
        The one exception is a single frame, whose harmonic sum NumPy
        reduces pairwise; the fused render leaves a final one-frame
        block to ``process_block`` (``OfflineAudioContext._render_fused``)."""
        if self.type == "custom":
            orders, sin_amps, cos_amps = self._custom_series(nyquist,
                                                             fundamental)
            angles = orders[:, None] * phases[None, :]
            signal = (sin_amps[:, None] * math.sin(angles)).sum(axis=0)
            return signal + (cos_amps[:, None] * math.cos(angles)).sum(axis=0)
        orders, amps = self._harmonics(nyquist, fundamental)
        # one sin through the math backend; the harmonic reduction tree
        # per frame is identical at any frame count
        waves = math.sin(orders[:, None] * phases[None, :])
        return (amps[:, None] * waves).sum(axis=0)

    def _harmonics(self, nyquist: float, fundamental: float):
        """(orders, amplitudes) of the band-limited series for self.type."""
        kmax = _harmonic_count(nyquist, fundamental)
        if kmax == 0:
            return np.array([1.0]), np.array([0.0])
        if self.type == "sine":
            return np.array([1.0]), np.array([1.0])
        if self.type == "square":
            k = np.arange(1, kmax + 1, 2, dtype=np.float64)
            return k, (4.0 / np.pi) / k
        if self.type == "sawtooth":
            k = np.arange(1, kmax + 1, dtype=np.float64)
            return k, (2.0 / np.pi) * ((-1.0) ** (k + 1)) / k
        if self.type == "triangle":
            k = np.arange(1, kmax + 1, 2, dtype=np.float64)
            sign = (-1.0) ** ((k - 1) / 2)
            return k, (8.0 / np.pi ** 2) * sign / (k * k)
        raise ValueError(f"unknown oscillator type {self.type!r}")

    def _block_signal(self, frame0: int, n: int) -> np.ndarray:
        """One quantum block of the signal: the block's param
        values, the carried-phase update and the harmonic choice from the
        block's first frequency. Advances ``self._phase``."""
        fs = self.context.sample_rate
        math = self.context.config.math

        freq = self.frequency.values(frame0, n, fs)
        detune = self.detune.values(frame0, n, fs)
        if np.any(detune):
            freq = freq * math.pow(2.0, detune / 1200.0)

        # phase accumulation across the block (vectorized cumulative sum)
        inc = 2.0 * np.pi * freq / fs
        phases = self._phase + np.cumsum(inc) - inc  # phase at start of each frame
        self._phase = (self._phase + float(np.sum(inc))) % (2.0 * np.pi)

        # (harmonics, frames) evaluated in one shot through the math backend
        return self._synthesize(math, phases, fs / 2.0, float(freq[0]))

    def process_block(self, inputs, frame0, n):
        if self._start_frame is None:
            return np.zeros((1, n), dtype=np.float64)
        signal = self._block_signal(frame0, n)

        frames = frame0 + np.arange(n)
        active = frames >= self._start_frame
        if self._stop_frame is not None:
            active &= frames < self._stop_frame
        return np.where(active, signal, 0.0)[None]

    def _buffer_signal(self, length: int) -> np.ndarray:
        """``_block_signal`` for every quantum block of the buffer at once,
        whether or not the params are automated. Advances
        ``self._phase`` past the last block.

        Each param is evaluated once, over the buffer padded to whole
        blocks: ``AudioParam.values`` is elementwise in the frame index,
        so every frame gets the float a per-block call gives it. Then,
        block by block as ``_block_signal`` does it, over a (blocks, 128)
        view: the detune factor scales only the blocks with some non-zero
        detune; the phase increments are summed per block (a partial last
        block over its own frames) and cumulated per block; the carried
        phase walks the block starts in Python floats with the quantum
        loop's ``(phase + sum) % 2pi``; and each block's harmonic count
        comes from its first frequency. The frames are then synthesized
        in one call per distinct count.
        """
        fs = self.context.sample_rate
        math = self.context.config.math
        quantum = RENDER_QUANTUM_FRAMES
        blocks = -(-length // quantum)
        freq = self.frequency.values(0, blocks * quantum, fs)
        detune = self.detune.values(0, blocks * quantum, fs)
        detune[length:] = 0.0  # padding must not mark the last block detuned
        if detune.any():
            detuned = np.repeat(detune.reshape(blocks, quantum).any(axis=-1),
                                quantum)
            freq = np.where(detuned, freq * math.pow(2.0, detune / 1200.0),
                            freq)

        inc = np.multiply(2.0 * np.pi, freq).reshape(blocks, quantum)
        inc /= fs
        sums = inc.sum(axis=-1).tolist()
        if length % quantum:
            sums[-1] = float(np.sum(inc[-1, :length % quantum]))
        starts = []
        phase = self._phase
        for block_sum in sums:
            starts.append(phase)
            phase = (phase + block_sum) % (2.0 * np.pi)
        self._phase = phase
        # (start + cumsum) - inc: the quantum loop's exact phase expression
        phases = np.cumsum(inc, axis=-1)
        phases += np.array(starts)[:, None]
        phases -= inc
        phases = phases.reshape(-1)[:length]

        nyquist = fs / 2.0
        firsts = freq[::quantum].tolist()
        count_of = {first: _harmonic_count(nyquist, first)
                    for first in dict.fromkeys(firsts)}
        counts = [count_of[first] for first in firsts]
        if counts.count(counts[0]) == blocks:
            return self._synthesize(math, phases, nyquist, firsts[0])
        frame_counts = np.repeat(counts, quantum)[:length]
        signal = np.empty(length, dtype=np.float64)
        for count in dict.fromkeys(counts):
            frames = frame_counts == count
            signal[frames] = self._synthesize(
                math, phases[frames], nyquist, firsts[counts.index(count)])
        return signal

    def process_buffer(self, inputs, length):
        """Fused path: synthesize the entire buffer (``_buffer_signal``)."""
        if self._start_frame is None:
            return np.zeros((1, length), dtype=np.float64)
        signal = self._buffer_signal(length)
        # started at frame 0 and never stopped: every frame is active
        if self._start_frame > 0 or self._stop_frame is not None:
            frames = np.arange(length)
            active = frames >= self._start_frame
            if self._stop_frame is not None:
                active &= frames < self._stop_frame
            signal = np.where(active, signal, 0.0)
        return signal[None]
