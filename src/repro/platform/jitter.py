"""Per-iteration load/perturbation model — the fickleness mechanism.

A jitter *path* is the analyser sub-path a single iteration takes, encoded
as a compact stable string like ``"t2.d1.m0.p1"``:

  t<k>  readout timing bucket: the analyser's window shifts back k*64 frames
  d1    denormal flush-to-zero on the windowed frames
  m1    fused-multiply contraction (one-ulp scale on the windowed frames)
  p1    float32 precision truncation of the windowed frames

The reference path ``t0.d0.m0.p0`` is the unloaded machine. Vectors that
never touch the analyser (DC) ignore the path entirely — which is why DC
is bit-stable across iterations while the FFT-family vectors are fickle,
reproducing Table 1's starkest feature with no special-casing.

The path string is part of the render-cache key, so fickleness costs one
extra render per *path actually taken*, not one per iteration.

Draw order, per user, from the user's own rng stream: the repertoire
first (``sample_repertoire``), then, for each analyser vector in run
order, one ``sample_path`` per iteration. ``sample_repertoire`` and
``sample_path`` are the scalar definition of that order.
``draw_path_codes`` replays it for a block of users in one array pass:
it reads each stream's raw 64-bit words and applies numpy's own
``Generator`` consumption rules to all users at once, so its paths are
byte-identical to the scalar draws (pinned by tests). A path travels
through the pass as a small integer *code*, ``t*8 + d*4 + m*2 + p``;
``PATHS[code]`` is its string, and code 0 is ``REFERENCE_PATH``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

REFERENCE_PATH = "t0.d0.m0.p0"

_DENORM_THRESHOLD = 1e-12
_FMA_SCALE = 1.0 + 2.0 ** -50


@dataclass(frozen=True)
class JitterPath:
    timing_bucket: int = 0
    denormal_flush: bool = False
    fused_multiply: bool = False
    f32_precision: bool = False

    def encode(self) -> str:
        return (f"t{self.timing_bucket}.d{int(self.denormal_flush)}"
                f".m{int(self.fused_multiply)}.p{int(self.f32_precision)}")

    @property
    def readout_offset(self) -> int:
        return self.timing_bucket * 64

    def transform(self, frames: np.ndarray) -> np.ndarray:
        y = frames
        if self.denormal_flush:
            y = np.where(np.abs(y) < _DENORM_THRESHOLD, 0.0, y)
        if self.fused_multiply:
            y = y * _FMA_SCALE
        if self.f32_precision:
            y = y.astype(np.float32).astype(np.float64)
        return y


#: the 32 paths the model draws, keyed by string, in code order
_PARSED = {jitter.encode(): jitter for jitter in (
    JitterPath(code >> 3, bool(code & 4), bool(code & 2), bool(code & 1))
    for code in range(32))}
#: every path string, indexed by its code ``t*8 + d*4 + m*2 + p``
PATHS = tuple(_PARSED)


def parse_path(path: str) -> JitterPath:
    """The JitterPath of one of the 32 strings in ``PATHS``; any other
    string names no path the model draws, so it is rejected rather than
    given a second cache key for an existing eFP."""
    try:
        return _PARSED[path]
    except (KeyError, TypeError):
        raise ValueError(f"malformed jitter path {path!r}") from None


def sample_load(rng: np.random.Generator) -> float:
    """Per-user CPU load level in [0, 1): most users lightly loaded, a tail
    heavily loaded (the users the paper sees leaving 20+ distinct prints)."""
    return float(rng.beta(1.3, 3.5) * 0.9)


def _draw_perturbed(rng: np.random.Generator) -> str:
    return JitterPath(
        timing_bucket=int(rng.integers(0, 4)),
        denormal_flush=bool(rng.random() < 0.5),
        fused_multiply=bool(rng.random() < 0.5),
        f32_precision=bool(rng.random() < 0.3),
    ).encode()


def sample_repertoire(rng: np.random.Generator, load: float) -> list[str]:
    """A user's characteristic perturbation states.

    Real load jitter is not memoryless: a given machine under load keeps
    revisiting the same few scheduler/precision states, so each user owns
    a small repertoire (bigger for heavier load) that its iterations draw
    from. This is also what keeps the equivalence-class count — and with
    it the render cache — tiny at study scale.
    """
    size = 1 + int(round(load * 6.0))
    return [_draw_perturbed(rng) for _ in range(size)]


def sample_path(rng: np.random.Generator, load: float,
                repertoire: list[str] | None = None) -> str:
    """One iteration's sub-path. Unloaded -> reference; loaded machines take
    a perturbed sub-path (from their repertoire, if given) with probability
    proportional to load."""
    if rng.random() >= load:
        return REFERENCE_PATH
    if repertoire:
        return repertoire[int(rng.integers(len(repertoire)))]
    return _draw_perturbed(rng)


# -- the bulk pass: the same draws for a block of users at once --------------

_LOW32 = np.uint64(0xFFFFFFFF)  # a word's low half
_HALF = np.uint64(32)  # shift to a word's high half


def _uniforms(words: np.ndarray) -> np.ndarray:
    """``Generator.random()`` of raw words: the top 53 bits over 2**53."""
    return (words >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


def _repertoire_words(size):
    """Words a ``size``-entry repertoire takes. Entry j draws
    ``integers(4)`` (a half-word: the low half of a fresh word for even
    j, the kept high half for odd j) and then three ``random()`` words."""
    return 7 * (size // 2) + 4 * (size % 2)


def _top_up(words: np.ndarray, stream, row: int,
            fetched: np.ndarray) -> np.ndarray:
    """Fetch one more word of ``row``'s stream into the block's word
    matrix, widening the matrix when the row reaches its pad column."""
    if fetched[row] + 1 >= words.shape[1]:
        words = np.concatenate([words, np.zeros_like(words)], axis=1)
    words[row, fetched[row]] = stream.random_raw()
    fetched[row] += 1
    return words


def draw_path_codes(streams, loads, vectors: int,
                    iterations: int) -> np.ndarray:
    """Every iteration's path code for a block of users, in one array pass.

    ``streams[u]`` is user u's fresh bit generator (anything with numpy's
    ``random_raw``) and ``loads[u]`` its load. Returns a ``(users,
    vectors, iterations)`` uint8 array whose ``[u, a, i]`` entry is the
    code of the path ``sample_path`` gives analyser vector ``a`` in
    iteration ``i``, drawing from ``np.random.Generator(streams[u])``
    after ``sample_repertoire``.

    The pass applies numpy's consumption rules to every user at once:

    - ``random()`` takes one word ``w`` and returns ``(w >> 11) * 2**-53``;
    - ``integers(n)`` takes one uint32 from the stream's half-word
      buffer: the low half of a fresh word first, then the kept high
      half (``random()`` never touches the buffer). Lemire's method
      scales it, redrawing while ``(x * n) mod 2**32 < 2**32 mod n``;
    - ``integers(1)`` draws nothing.

    Each stream is prefetched with every word its draws can take when
    nothing is rejected. A rejection draws one more half-word, so it
    tops its stream up by one word.
    """
    loads = np.asarray(loads, dtype=np.float64)
    users = len(streams)
    steps = vectors * iterations
    sizes = np.maximum(1 + np.rint(loads * 6.0).astype(np.int64), 0)
    reach = int(sizes.max(initial=0))
    prefetch = _repertoire_words(reach) + steps + (steps + 1) // 2
    words = np.zeros((users, prefetch + 1), dtype=np.uint64)  # + a pad column
    for row, stream in enumerate(streams):
        words[row, :prefetch] = stream.random_raw(prefetch)
    fetched = np.full(users, prefetch)

    repertoire = np.zeros((users, max(reach, 1)), dtype=np.uint8)
    for j in range(reach):
        base = 7 * (j // 2)
        if j % 2:
            timing = words[:, base] >> _HALF
            flags = words[:, base + 4:base + 7]
        else:
            timing = words[:, base] & _LOW32
            flags = words[:, base + 1:base + 4]
        # integers(0, 4) never rejects: 2**32 is a multiple of 4
        bucket = (timing >> np.uint64(30)).astype(np.int64)
        flag = _uniforms(flags) < (0.5, 0.5, 0.3)
        repertoire[:, j] = bucket * 8 + flag @ (4, 2, 1)

    rows = np.arange(users)
    pos = _repertoire_words(sizes)  # each stream's next unread word
    spare = sizes % 2 == 1  # a kept high half-word is buffered
    half = words[rows, 7 * (sizes // 2)] >> _HALF
    n = sizes.astype(np.uint64)
    draws = sizes > 1  # integers(1) draws nothing
    threshold = ((1 << 32) % np.maximum(sizes, 1)).astype(np.uint64)
    codes = np.empty((users, steps), dtype=np.uint8)
    for step in range(steps):
        loaded = _uniforms(words[rows, pos]) < loads
        pos += 1
        draw = loaded & draws
        word = words[rows, pos]
        fresh = draw & ~spare
        x = np.where(spare, half, word & _LOW32)
        half = np.where(fresh, word >> _HALF, half)
        pos += fresh
        spare ^= draw
        scaled = x * n
        # Lemire rejections are rare (at most 4 in 2**32 draws): redraw
        # them row by row, with numpy's buffer rules
        for row in np.flatnonzero(draw & ((scaled & _LOW32) < threshold)):
            product = int(scaled[row])
            while product & 0xFFFFFFFF < int(threshold[row]):
                words = _top_up(words, streams[row], row, fetched)
                if spare[row]:
                    value = int(half[row])
                else:
                    value = int(words[row, pos[row]])
                    value, half[row] = value & 0xFFFFFFFF, value >> 32
                    pos[row] += 1
                spare[row] = not spare[row]
                product = value * int(n[row])
            scaled[row] = product
        pick = (scaled >> _HALF).astype(np.intp)
        codes[:, step] = np.where(loaded, repertoire[rows, pick], 0)
    return codes.reshape(users, vectors, iterations)
