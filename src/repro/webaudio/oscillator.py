"""OscillatorNode: band-limited additive synthesis through the stack's
math backend, evaluated per 128-frame block with no per-sample loops.

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
        if fundamental <= 0:
            zero = np.array([0.0])
            return np.array([1.0]), zero, zero
        kmax = min(_MAX_HARMONICS, max(1, int(nyquist / fundamental)),
                   wave.real.shape[0] - 1)
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
        if fundamental <= 0:
            return np.array([1.0]), np.array([0.0])
        kmax = min(_MAX_HARMONICS, max(1, int(nyquist / fundamental)))
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
        """One quantum block of the signal, on one row: the block's param
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
        batch = self.context.batch_size
        if self._start_frame is None:
            return np.zeros((batch, 1, n), dtype=np.float64)
        signal = self._block_signal(frame0, n)

        frames = frame0 + np.arange(n)
        active = frames >= self._start_frame
        if self._stop_frame is not None:
            active &= frames < self._stop_frame
        # oscillator params are graph state shared by every batch row, so the
        # signal is row-uniform: compute it once, hand out a read-only view
        return np.broadcast_to(np.where(active, signal, 0.0), (batch, 1, n))

    def _template_signal(self, length: int) -> np.ndarray:
        """The automation-free whole-buffer signal, on one row.

        Automation-free params are block-position independent, so one
        128-frame increment template reproduces every quantum block (the
        final, possibly partial block is a prefix of it — cumsum is
        prefix-stable). Per-block phase starts still walk the quantum
        loop's exact update, ``(phase + sum(inc)) % 2pi`` per block, so
        every phase value — and therefore every sin evaluation — is the
        same float the quantum loop produces.
        """
        fs = self.context.sample_rate
        math = self.context.config.math
        quantum = RENDER_QUANTUM_FRAMES

        freq = self.frequency.values(0, quantum, fs)
        detune = self.detune.values(0, quantum, fs)
        if np.any(detune):
            freq = freq * math.pow(2.0, detune / 1200.0)
        inc = 2.0 * np.pi * freq / fs
        block_cumsum = np.cumsum(inc)

        nblocks = -(-length // quantum)
        last_n = length - (nblocks - 1) * quantum
        full_sum = float(np.sum(inc))
        starts = np.empty(nblocks, dtype=np.float64)
        phase = self._phase
        for b in range(nblocks):
            starts[b] = phase
            s = full_sum if (b < nblocks - 1 or last_n == quantum) \
                else float(np.sum(inc[:last_n]))
            phase = (phase + s) % (2.0 * np.pi)
        self._phase = phase
        # (start + cumsum) - inc: the quantum loop's exact phase expression,
        # evaluated for all blocks at once and trimmed to the buffer
        phases = ((starts[:, None] + block_cumsum[None, :]) - inc[None, :])
        phases = phases.reshape(-1)[:length]

        return self._synthesize(math, phases, fs / 2.0, float(freq[0]))

    def process_buffer(self, inputs, length):
        """Fused path: synthesize the entire buffer on one row, broadcast.

        Automation-free params take the 128-frame template
        (``_template_signal``). Automated ``frequency`` / ``detune``
        values change from block to block — and with them the harmonic
        count, chosen from each block's first frequency — so the signal
        walks the quantum loop's blocks through ``_block_signal``, the
        very kernel ``process_block`` runs.
        """
        batch = self.context.batch_size
        if self._start_frame is None:
            return np.zeros((batch, 1, length), dtype=np.float64)
        if self.frequency._events or self.detune._events:
            quantum = RENDER_QUANTUM_FRAMES
            signal = np.concatenate([
                self._block_signal(frame0, min(quantum, length - frame0))
                for frame0 in range(0, length, quantum)])
        else:
            signal = self._template_signal(length)

        frames = np.arange(length)
        active = frames >= self._start_frame
        if self._stop_frame is not None:
            active &= frames < self._stop_frame
        return np.broadcast_to(np.where(active, signal, 0.0), (batch, 1, length))
