"""From-scratch FFT backends, selectable per platform stack.

Each backend computes the same DFT but rounds it differently, so their
outputs agree with ``numpy.fft.fft`` only to within a backend-specific
tolerance — the ulp-level divergence between real browsers' FFT
libraries that the paper identifies as a causal factor of fingerprint
diversity (§5). ``radix2`` and ``splitradix`` run one iterative kernel
and differ only in the operand order of the butterfly's twiddle
product; ``bluestein`` always takes the chirp-z path; ``numpy`` is the
reference.

All backends accept arbitrary sizes: powers of two go through the
iterative kernel, everything else through the Bluestein chirp-z
transform built on it.

Every backend transforms the LAST axis and accepts arbitrary leading
(batch) axes: ``fft((B, n))`` computes B independent n-point DFTs in
one call, with each row bit-identical to ``fft((n,))`` of that row —
all stage arithmetic is elementwise, so adding a leading axis never
reorders a single floating-point operation. The kernel's Python
overhead (a few ufunc calls per stage, log2(n) stages) is paid once per
*batch* instead of once per row.
"""
from __future__ import annotations

import numpy as np

__all__ = ["FFTBackend", "NumpyFFT", "Radix2FFT", "SplitRadixFFT", "BluesteinFFT",
           "FFT_BACKENDS", "get_fft_backend"]


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


# Per-size constant tables (twiddle factors, bit-reversal permutations,
# Bluestein chirps) are deterministic pure functions of the size, so caching
# them returns the exact arrays the uncached code would rebuild — zero
# effect on output bytes, large effect on per-call Python/alloc overhead.
# Cached arrays are marked read-only; kernels only ever multiply by them.
_TWIDDLE_CACHE: dict[int, np.ndarray] = {}
_BITREV_CACHE: dict[int, np.ndarray] = {}


def _twiddles(size: int) -> np.ndarray:
    """``exp(-2j*pi*arange(size//2)/size)`` in complex128, cached per size."""
    tw = _TWIDDLE_CACHE.get(size)
    if tw is None:
        tw = np.exp(-2j * np.pi * np.arange(size // 2) / size)
        tw.setflags(write=False)
        _TWIDDLE_CACHE[size] = tw
    return tw


def _bit_reverse_indices(n: int) -> np.ndarray:
    rev = _BITREV_CACHE.get(n)
    if rev is not None:
        return rev
    levels = n.bit_length() - 1
    idx = np.arange(n, dtype=np.int64)
    rev = np.zeros(n, dtype=np.int64)
    for bit in range(levels):
        rev |= ((idx >> bit) & 1) << (levels - 1 - bit)
    rev.setflags(write=False)
    _BITREV_CACHE[n] = rev
    return rev


def _fft_iterative_radix2(x: np.ndarray, twiddle_first: bool = False) -> np.ndarray:
    """Iterative Cooley-Tukey decimation-in-time; vectorized per stage.

    Transforms the last axis; leading axes are independent batch rows.
    Stages ping-pong between two preallocated buffers with out-parameter
    ufuncs — the same multiplies/adds/subtracts on the same values in the
    same order as the textbook concatenate form, minus the per-stage
    temporary allocations (which dominated wall time for analyser-sized
    batches).

    ``twiddle_first`` swaps the operands of the butterfly's complex
    product (``tw * odd`` instead of ``odd * tw``). Where numpy's complex
    multiply fuses a multiply-add, the two orders round differently, and
    that is the whole difference between ``Radix2FFT`` and
    ``SplitRadixFFT``.
    """
    n = x.shape[-1]
    lead = x.shape[:-1]
    a = np.asarray(x, dtype=np.complex128)[..., _bit_reverse_indices(n)]
    if n == 1:
        return a
    out = np.empty_like(a)
    scratch = np.empty_like(a)
    size = 2
    while size <= n:
        half = size // 2
        tw = _twiddles(size)
        av = a.reshape(*lead, n // size, size)
        ov = out.reshape(*lead, n // size, size)
        even, odd = av[..., :half], av[..., half:]
        product = scratch.reshape(*lead, n // size, size)[..., :half]
        if twiddle_first:
            np.multiply(tw, odd, out=product)
        else:
            np.multiply(odd, tw, out=product)
        np.add(even, product, out=ov[..., :half])
        np.subtract(even, product, out=ov[..., half:])
        a, out = out, a
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
