"""From-scratch FFT backends, selectable per platform stack.

Each backend computes the same DFT but rounds it differently, so their
outputs agree with ``numpy.fft.fft`` only to within a backend-specific
tolerance — the ulp-level divergence between real browsers' FFT
libraries that the paper identifies as a causal factor of fingerprint
diversity (§5). ``radix2`` and ``splitradix`` run one radix-2 kernel,
in Stockham (autosort) order, and differ only in the operand order of
the butterfly's twiddle product; ``bluestein`` always takes the chirp-z
path; ``numpy`` is the reference.

All backends accept arbitrary sizes: powers of two go through the
radix-2 kernel, everything else through the Bluestein chirp-z
transform built on it. The kernel computes the recursive radix-2
kernel's values float for float (the tests keep that kernel as their
oracle); its memory layout only decides where each value sits.

Every backend transforms the LAST axis and accepts arbitrary leading
(batch) axes: ``fft((B, n))`` computes B independent n-point DFTs in
one call, with each row bit-identical to ``fft((n,))`` of that row —
all stage arithmetic is elementwise, so adding a leading axis never
reorders a single floating-point operation. The kernel's Python
overhead (three ufunc calls per stage, log2(n) stages) is paid once per
*batch* instead of once per row.
"""
from __future__ import annotations

import numpy as np

__all__ = ["FFTBackend", "NumpyFFT", "Radix2FFT", "SplitRadixFFT", "BluesteinFFT",
           "FFT_BACKENDS", "get_fft_backend"]


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


# Per-size constant tables (twiddle factors, their per-stage tiles,
# Bluestein chirps) are deterministic pure functions of the size, so caching
# them returns the exact arrays the uncached code would rebuild — zero
# effect on output bytes, large effect on per-call Python/alloc overhead.
# Cached arrays are marked read-only; kernels only ever multiply by them.
_TWIDDLE_CACHE: dict[int, np.ndarray] = {}
_TILE_CACHE: dict[tuple[int, int, bool], np.ndarray] = {}


def _twiddles(size: int) -> np.ndarray:
    """``exp(-2j*pi*arange(size//2)/size)`` in complex128, cached per size."""
    tw = _TWIDDLE_CACHE.get(size)
    if tw is None:
        tw = np.exp(-2j * np.pi * np.arange(size // 2) / size)
        tw.setflags(write=False)
        _TWIDDLE_CACHE[size] = tw
    return tw


def _twiddle_tile(size: int, reps: int, transposed: bool) -> np.ndarray:
    """``_twiddles(size)`` as one stage's contiguous operand, cached:
    ``(size//2, reps)``, each twiddle repeated along its row, for the
    kernel's ``(L, m)`` layout; ``(reps, size//2)``, the table repeated
    per row, for its ``transposed`` ``(m, L)`` layout. The values are the
    table's own floats, only copied."""
    tile = _TILE_CACHE.get((size, reps, transposed))
    if tile is None:
        tw = _twiddles(size)
        tile = (np.tile(tw, reps).reshape(reps, size // 2) if transposed
                else np.repeat(tw, reps).reshape(size // 2, reps))
        tile.setflags(write=False)
        _TILE_CACHE[size, reps, transposed] = tile
    return tile


def _fft_iterative_radix2(x: np.ndarray, twiddle_first: bool = False) -> np.ndarray:
    """Radix-2 decimation in time, in Stockham (autosort) order; each
    stage is three whole-array ufunc calls.

    Transforms the last axis; leading axes are independent batch rows.
    With ``m = n // L``, the stage at length ``L`` holds the length-``L``
    DFTs of x's ``m`` stride-``m`` subsequences ``x[r::m]`` and combines
    each pair ``r``, ``r + m/2`` (the even and odd halves of
    ``x[r::m/2]``) into one length-``2L`` DFT: ``even + odd*tw`` and
    ``even - odd*tw`` with ``tw = _twiddles(2L)``. That is the recursion
    ``DFT(x) = combine(DFT(x[0::2]), DFT(x[1::2]))`` evaluated level by
    level, with the recursive kernel's twiddle values, so every
    intermediate value is the same float; only where it sits in memory
    differs.

    Layout: while ``2*L*L < n`` the DFTs are kept as ``(L, m)`` rows
    (bin-major), so a stage reads ``m/2``-long runs and writes its two
    outputs as two contiguous blocks; then one copy transposes them to
    ``(m, L)`` (subsequence-major), where a stage's inputs are contiguous
    blocks and its outputs ``L``-long runs. No stage runs an inner loop
    shorter than ``sqrt(n/2)``. Stages ping-pong between two
    buffers, and no ufunc's ``out`` overlaps an operand: numpy may pick
    another inner loop for overlapping operands, and whether the loop
    fuses the complex multiply's multiply-add is what separates the two
    operand orders.

    ``twiddle_first`` swaps the operands of the butterfly's complex
    product (``tw * odd`` instead of ``odd * tw``). Where numpy's complex
    multiply fuses a multiply-add, the two orders round differently, and
    that is the whole difference between ``Radix2FFT`` and
    ``SplitRadixFFT``.
    """
    n = x.shape[-1]
    lead = x.shape[:-1]
    a = np.array(x, dtype=np.complex128)
    if n == 1:
        return a
    b = np.empty_like(a)
    scratch = np.empty((*lead, n // 2), dtype=np.complex128)
    size = 1  # L: the length of the DFTs held in ``a``
    transposed = False
    while size < n:
        m = n // size
        half = m // 2
        if not transposed and 2 * size * size >= n:
            np.copyto(b.reshape(*lead, m, size),
                      a.reshape(*lead, size, m).swapaxes(-1, -2))
            a, b = b, a
            transposed = True
        if transposed:
            y = a.reshape(*lead, m, size)
            even, odd = y[..., :half, :], y[..., half:, :]
            out = b.reshape(*lead, half, 2 * size)
            low, high = out[..., :size], out[..., size:]
            product = scratch.reshape(*lead, half, size)
        else:
            y = a.reshape(*lead, size, m)
            even, odd = y[..., :half], y[..., half:]
            out = b.reshape(*lead, 2 * size, half)
            low, high = out[..., :size, :], out[..., size:, :]
            product = scratch.reshape(*lead, size, half)
        tw = _twiddle_tile(2 * size, half, transposed)
        if twiddle_first:
            np.multiply(tw, odd, out=product)
        else:
            np.multiply(odd, tw, out=product)
        np.add(even, product, out=low)
        np.subtract(even, product, out=high)
        a, b = b, a
        size *= 2
    return a


class FFTBackend:
    """Base class: the iterative radix-2 kernel for powers of two, and
    the Bluestein chirp-z transform built on it for every other size.

    ``fft`` transforms the last axis; arbitrary leading batch axes are
    carried through every kernel untouched.
    """

    name = "abstract"
    #: max relative error vs numpy.fft.fft expected on well-scaled input
    tolerance = 1e-9

    def fft(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.shape[-1] == 0:
            return np.zeros(x.shape, dtype=np.complex128)
        return self._fft(x)

    def _fft(self, x: np.ndarray) -> np.ndarray:
        """The transform of a non-empty last axis."""
        if _is_pow2(x.shape[-1]):
            return self._fft_pow2(x)
        return self._bluestein(x)

    def _fft_pow2(self, x: np.ndarray) -> np.ndarray:
        return _fft_iterative_radix2(x)

    def _ifft_pow2(self, x: np.ndarray) -> np.ndarray:
        return np.conj(self._fft_pow2(np.conj(x))) / x.shape[-1]

    def _chirp_tables(self, n: int) -> tuple[np.ndarray, int, np.ndarray]:
        """Per-size Bluestein constants ``(w, m, fft(b))``, cached.

        The chirp ``w`` and the zero-padded mirrored chirp ``b`` depend
        only on ``n``, and ``fft(b)`` only on ``n`` and this backend's
        power-of-two core — all deterministic, so the cache returns the
        exact arrays every call used to rebuild (one full size-``m``
        forward FFT saved per call)."""
        cache = self.__dict__.setdefault("_chirp_cache", {})
        entry = cache.get(n)
        if entry is None:
            k = np.arange(n, dtype=np.int64)
            # k*k mod 2n keeps the chirp argument small and exact in float64
            w = np.exp(-1j * np.pi * ((k * k) % (2 * n)) / n)
            m = 1 << (2 * n - 1).bit_length()
            b = np.zeros(m, dtype=np.complex128)
            chirp_conj = np.conj(w)
            b[:n] = chirp_conj
            b[m - n + 1:] = chirp_conj[1:][::-1]
            fb = self._fft_pow2(b)
            w.setflags(write=False)
            fb.setflags(write=False)
            entry = (w, m, fb)
            cache[n] = entry
        return entry

    def _bluestein(self, x: np.ndarray) -> np.ndarray:
        """Chirp-z transform: any-size DFT via one power-of-two convolution."""
        n = x.shape[-1]
        w, m, fb = self._chirp_tables(n)
        a = np.zeros((*x.shape[:-1], m), dtype=np.complex128)
        a[..., :n] = np.asarray(x, dtype=np.complex128) * w
        conv = self._ifft_pow2(self._fft_pow2(a) * fb)
        return conv[..., :n] * w


class NumpyFFT(FFTBackend):
    """The reference backend (what a vDSP/pocketfft-class library produces)."""

    name = "numpy"
    tolerance = 0.0

    def _fft(self, x: np.ndarray) -> np.ndarray:
        return np.fft.fft(x)


class Radix2FFT(FFTBackend):
    name = "radix2"
    tolerance = 1e-10


class SplitRadixFFT(FFTBackend):
    """Radix-2 decimation-in-time with the twiddle product's operands
    swapped (``tw * odd``). It rounds differently from ``Radix2FFT``
    only where numpy's complex multiply uses FMA; without FMA the two
    agree bit for bit."""

    name = "splitradix"
    tolerance = 1e-9

    def _fft_pow2(self, x: np.ndarray) -> np.ndarray:
        return _fft_iterative_radix2(x, twiddle_first=True)


class BluesteinFFT(FFTBackend):
    """Always takes the chirp-z path, even for power-of-two sizes."""

    name = "bluestein"
    tolerance = 1e-7

    def _fft(self, x: np.ndarray) -> np.ndarray:
        return self._bluestein(x)


FFT_BACKENDS = {b.name: b for b in (NumpyFFT(), Radix2FFT(), SplitRadixFFT(), BluesteinFFT())}


def get_fft_backend(name: str) -> FFTBackend:
    try:
        return FFT_BACKENDS[name]
    except KeyError:
        raise KeyError(f"unknown FFT backend {name!r}; have {sorted(FFT_BACKENDS)}") from None
