"""Property-style checks: every custom FFT backend matches numpy.fft.fft
within its declared tolerance, on power-of-two sizes (native kernels) and
non-power-of-two sizes (Bluestein chirp-z path), at fixed seeds. A
hypothesis test pins the power-of-two kernel byte for byte to the
recursive kernel, in both operand orders of the twiddle product
(``Radix2FFT`` and ``SplitRadixFFT``), and ``BluesteinFFT`` is pinned to
the chirp-z transform run on that oracle (``HYPOTHESIS_PROFILE=deep``
searches longer; profiles are registered in the root ``conftest.py``).
"""
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.webaudio.fft import (FFT_BACKENDS, BluesteinFFT, Radix2FFT,
                                SplitRadixFFT, _twiddles, get_fft_backend)

POW2_SIZES = [8, 32, 128, 512, 2048]
NON_POW2_SIZES = [3, 12, 100, 441, 1000]
CUSTOM_BACKENDS = [n for n in FFT_BACKENDS if n != "numpy"]


def _rel_error(got, ref):
    scale = np.max(np.abs(ref))
    return np.max(np.abs(got - ref)) / (scale if scale else 1.0)


@pytest.mark.parametrize("name", CUSTOM_BACKENDS)
@pytest.mark.parametrize("n", POW2_SIZES)
def test_pow2_matches_numpy(name, n):
    rng = np.random.default_rng(1234 + n)
    backend = get_fft_backend(name)
    for _ in range(3):
        x = rng.standard_normal(n)
        tol = max(backend.tolerance, 1e-12)
        assert _rel_error(backend.fft(x), np.fft.fft(x)) < tol


@pytest.mark.parametrize("name", CUSTOM_BACKENDS)
@pytest.mark.parametrize("n", NON_POW2_SIZES)
def test_non_pow2_matches_numpy_via_bluestein(name, n):
    rng = np.random.default_rng(4321 + n)
    backend = get_fft_backend(name)
    x = rng.standard_normal(n)
    tol = max(backend.tolerance, 1e-10) * 10  # chirp-z loses a digit
    assert _rel_error(backend.fft(x), np.fft.fft(x)) < tol


@pytest.mark.parametrize("name", CUSTOM_BACKENDS)
def test_complex_input(name):
    rng = np.random.default_rng(77)
    x = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    backend = get_fft_backend(name)
    assert _rel_error(backend.fft(x), np.fft.fft(x)) < 1e-9


@pytest.mark.parametrize("name", list(FFT_BACKENDS))
def test_linearity_and_impulse(name):
    """DFT properties that hold regardless of tolerance: delta -> flat ones,
    and the transform is linear."""
    backend = get_fft_backend(name)
    delta = np.zeros(64)
    delta[0] = 1.0
    assert np.allclose(backend.fft(delta), np.ones(64), atol=1e-9)

    rng = np.random.default_rng(5)
    a, b = rng.standard_normal(64), rng.standard_normal(64)
    lhs = backend.fft(2.0 * a + 3.0 * b)
    rhs = 2.0 * backend.fft(a) + 3.0 * backend.fft(b)
    assert np.allclose(lhs, rhs, atol=1e-8)


def test_backends_bitwise_distinct():
    """The whole point of multiple backends: ulp-level divergence. The three
    custom kernels must NOT be bit-identical to numpy on a nontrivial input
    (if they were, stacks differing only in FFT backend would collide)."""
    rng = np.random.default_rng(9)
    x = rng.standard_normal(2048)
    ref = np.fft.fft(x).tobytes()
    distinct = {ref}
    for name in CUSTOM_BACKENDS:
        distinct.add(get_fft_backend(name).fft(x).tobytes())
    assert len(distinct) >= 3


def test_unknown_backend_raises():
    with pytest.raises(KeyError):
        get_fft_backend("fftw-4.0")


def test_empty_input():
    for name in FFT_BACKENDS:
        assert get_fft_backend(name).fft(np.zeros(0)).shape == (0,)


def _fft_recursive(x: np.ndarray, twiddle_first: bool = True) -> np.ndarray:
    """The recursive radix-2 kernel ``SplitRadixFFT`` used to run: the
    reference the iterative kernel must reproduce byte for byte. Kept
    here, as it was, as the test oracle; ``twiddle_first=False`` swaps
    the twiddle product's operands to ``odd * tw``, ``Radix2FFT``'s
    order."""
    n = x.shape[-1]
    if n == 1:
        return x.astype(np.complex128)
    if n == 2:
        # unrolled base case: the exact ops of the two n == 1 leaves plus
        # the n == 2 combine, minus two Python frames per leaf pair
        even = x[..., 0::2].astype(np.complex128)
        odd = x[..., 1::2].astype(np.complex128)
        t = _twiddles(2) * odd if twiddle_first else odd * _twiddles(2)
        return np.concatenate([even + t, even - t], axis=-1)
    even = _fft_recursive(x[..., ::2], twiddle_first)
    odd = _fft_recursive(x[..., 1::2], twiddle_first)
    t = _twiddles(n) * odd if twiddle_first else odd * _twiddles(n)
    return np.concatenate([even + t, even - t], axis=-1)


@pytest.mark.parametrize("backend, twiddle_first",
                         [(Radix2FFT(), False), (SplitRadixFFT(), True)],
                         ids=["radix2", "splitradix"])
@given(n=st.sampled_from([2 ** k for k in range(16)]),
       lead=st.sampled_from([(), (1,), (3,), (2, 5), (14,)]),
       complex_input=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
@example(n=1, lead=(3,), complex_input=False, seed=0)
@example(n=2, lead=(), complex_input=True, seed=1)
@example(n=4, lead=(2, 5), complex_input=False, seed=2)
@example(n=2048, lead=(14,), complex_input=False, seed=4)
@example(n=32768, lead=(1,), complex_input=True, seed=3)
def test_pow2_kernel_equals_recursive_kernel(backend, twiddle_first, n, lead,
                                             complex_input, seed):
    """The iterative kernel evaluates the recursive kernel's butterflies
    on the same values with the same twiddles, in the backend's operand
    order (``odd * tw`` for ``radix2``, ``tw * odd`` for ``splitradix``):
    same bytes, whatever its memory layout."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((*lead, n))
    if complex_input:
        x = x + 1j * rng.standard_normal(x.shape)
    got = backend.fft(x)
    want = _fft_recursive(np.asarray(x, dtype=np.complex128), twiddle_first)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [2048, 441])
def test_bluestein_equals_chirp_z_on_the_oracle(n):
    """``BluesteinFFT`` runs the power-of-two kernel in ``odd * tw`` order
    inside its chirp-z transform, at a power-of-two n too: with that
    kernel replaced by the recursive oracle, the transform gives the
    same bytes."""
    x = np.random.default_rng(n).standard_normal((3, n))
    reference = BluesteinFFT()  # a fresh chirp cache, built on the oracle
    reference._fft_pow2 = lambda a: _fft_recursive(a, twiddle_first=False)
    assert BluesteinFFT().fft(x).tobytes() == reference.fft(x).tobytes()
