"""DynamicsCompressorNode: spec-style soft-knee curve with attack/release
envelope smoothing — fully vectorized, whole buffer at once.

The envelope follower is the classic one-pole recursion
``y[n] = a*y[n-1] + (1-a)*x[n]``. Per 128-frame block the quantum loop
picks attack vs release from the block peak (one scalar comparison per
*block*, never per sample) and evaluates the recursion in closed form:

    y[n] = a^(n+1) * y0 + (1-a) * a^n * cumsum(x[k] / a^k)

which is exact, branch-free and pure NumPy. The coefficients derived from
the spec's attack/release times satisfy a >= 0.99 at audio sample rates, so
``a^-127`` stays ~e and the scaled cumulative sum is numerically safe.
The fused kernel keeps that block structure without walking the blocks in
NumPy: peaks and both coefficients' scaled cumsums come from whole-buffer
passes over a (blocks, 128) view, and only the state at each block
boundary steps through the recursion, in Python floats.

All transcendental steps (exp for the coefficients, log10 for dB
conversion, pow for the makeup gain) run through the platform stack's math
backend — this node is the main nonlinearity that amplifies ulp-level
library differences into distinct fingerprints (cf. SNIPPETS.md #1).
"""
from __future__ import annotations

import numpy as np

from . import RENDER_QUANTUM_FRAMES
from .node import AudioNode, batch_uniform, mix_to_channels

_DB_FLOOR = 1e-12  # linear floor before dB conversion


class DynamicsCompressorNode(AudioNode):
    def __init__(self, context):
        super().__init__(context)
        p = context.config.compressor
        self.threshold = p.threshold_db
        self.knee = p.knee_db
        self.ratio = p.ratio
        self.attack = p.attack_s
        self.release = p.release_s
        self._makeup_exponent = p.makeup_exponent
        #: per-row envelope state — every batch row compresses independently
        self._envelope = np.zeros(context.batch_size, dtype=np.float64)
        self.reduction = 0.0  # dB, most recent block (informational, like the spec attr)
        #: cached ``coef ** arange(n)`` tables, keyed (coef, n) — the scan
        #: rebuilds nothing per block (exact same floats, see _pow_table)
        self._pow_cache: dict[tuple[float, int], np.ndarray] = {}

        math = context.config.math
        fs = context.sample_rate
        # one-pole coefficients; clamped so the closed-form scan stays stable
        self._attack_coef = float(np.clip(math.exp(np.array(-1.0 / (fs * max(self.attack, 1e-4)))), 0.9, 0.999999))
        self._release_coef = float(np.clip(math.exp(np.array(-1.0 / (fs * max(self.release, 1e-3)))), 0.9, 0.999999))
        # makeup gain: (1 / gain-at-0dBFS) ** exponent, as in the spec
        zero_gain_db = self._curve_db(np.array([0.0]), math)[0]
        lin = math.pow(10.0, np.array(zero_gain_db / 20.0))
        self._makeup = float(math.pow(1.0 / np.maximum(lin, _DB_FLOOR), np.array(self._makeup_exponent)))

    # -- static compression curve (dB in -> dB out), vectorized -------------
    def _curve_db(self, x_db: np.ndarray, math) -> np.ndarray:
        t, k, r = self.threshold, self.knee, self.ratio
        lo = t - k / 2.0
        hi = t + k / 2.0
        # below knee: identity; in knee: quadratic interpolation; above: ratio
        knee_term = x_db - lo
        in_knee = x_db + ((1.0 / r - 1.0) * knee_term * knee_term) / (2.0 * max(k, 1e-9))
        above = t + (x_db - t) / r
        return np.where(x_db < lo, x_db, np.where(x_db > hi, above, in_knee))

    def _pow_table(self, coef: float, n: int) -> np.ndarray:
        """``coef ** arange(n)``, cached per (coef, n).

        ``np.power`` with a scalar base produces the exact same floats as
        the broadcast ``a ** k`` it replaces, so caching holds bit-identity
        while dropping the per-block arange + pow rebuild.
        """
        key = (coef, n)
        tab = self._pow_cache.get(key)
        if tab is None:
            tab = coef ** np.arange(n, dtype=np.float64)
            self._pow_cache[key] = tab
        return tab

    def _one_pole_scan(self, x: np.ndarray, a: np.ndarray, y0: np.ndarray) -> np.ndarray:
        """Closed-form y[n] = a*y[n-1] + (1-a)*x[n], whole block at once.

        ``x`` is (B, n); ``a`` and ``y0`` are (B, 1) per-row coefficients and
        initial states. ``a``'s entries are this node's attack/release
        coefficients (that is all ``process_block`` ever passes), so the
        power tables come from the per-coefficient cache. Every step is an
        elementwise ufunc or a last-axis cumsum, so each row equals the
        scalar-coefficient scan of that row.
        """
        n = x.shape[-1]
        apow = np.where(a == self._attack_coef,
                        self._pow_table(self._attack_coef, n),
                        self._pow_table(self._release_coef, n))
        s = np.cumsum(x / apow, axis=-1)
        return (a * apow) * y0 + (1.0 - a) * apow * s

    def _scan_block(self, level: np.ndarray, env: np.ndarray) -> np.ndarray:
        """One quantum envelope step: pick attack vs release from the block
        peak (one comparison per row per *block*, never per sample), then
        the closed-form scan. ``level`` is (B, n), ``env`` is (B,)."""
        peak = level.max(axis=-1)                            # (B,)
        coef = np.where(peak > env,
                        self._attack_coef, self._release_coef)[:, None]
        return self._one_pole_scan(level, coef, env[:, None])

    def _gain_pipeline(self, env: np.ndarray, math) -> tuple[np.ndarray, np.ndarray]:
        """level -> dB -> curve -> linear gain, all elementwise — identical
        whether fed one 128-frame block or the whole buffer."""
        env_db = 20.0 * math.log10(np.maximum(env, _DB_FLOOR))
        gain_db = self._curve_db(env_db, math) - env_db
        gain_lin = math.pow(10.0, gain_db / 20.0) * self._makeup
        return gain_db, gain_lin

    def _set_reduction(self, gain_db: np.ndarray) -> None:
        reduction = gain_db.min(axis=-1)
        self.reduction = float(reduction[0]) if reduction.shape[0] == 1 else reduction

    def process_block(self, inputs, frame0, n):
        x = inputs[0]
        math = self.context.config.math

        level = np.abs(mix_to_channels(x, 1)[:, 0, :])       # (B, n)
        env = self._scan_block(level, self._envelope)
        self._envelope = env[:, -1].copy()

        gain_db, gain_lin = self._gain_pipeline(env, math)
        self._set_reduction(gain_db)
        return x * gain_lin[:, None, :]

    def _scan_blocks(self, blocks: np.ndarray,
                     env: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``_scan_block`` over every block of a (rows, k, n) view, from
        the (rows,) state ``env``: returns the (rows, k * n) envelope and
        the state after the last block, every float equal to a
        block-by-block scan's.

        A block's scan depends on the blocks before it only through its
        start state and its attack/release pick. So the block peaks and
        both coefficients' scaled cumsums come from whole-view passes;
        the state alone walks the block boundaries, in Python floats
        (attack when the block peak exceeds it, then the scan's own
        expression at the block's last frame); and one elementwise pass
        evaluates the scan from the picks and start states.
        """
        n = blocks.shape[-1]
        coefs = (self._attack_coef, self._release_coef)
        tables = [self._pow_table(coef, n) for coef in coefs]
        scans = [np.cumsum(blocks / table, axis=-1) for table in tables]
        att, rel = coefs
        p_att, p_rel = float(tables[0][-1]), float(tables[1][-1])
        picks, starts, state = [], [], []
        for peaks, s_atts, s_rels, y in zip(blocks.max(axis=-1).tolist(),
                                            scans[0][..., -1].tolist(),
                                            scans[1][..., -1].tolist(),
                                            env.tolist()):
            picks.append([])
            starts.append([])
            for peak, s_att, s_rel in zip(peaks, s_atts, s_rels):
                pick = peak > y
                picks[-1].append(pick)
                starts[-1].append(y)
                a, p, s = (att, p_att, s_att) if pick else (rel, p_rel, s_rel)
                y = (a * p) * y + (1.0 - a) * p * s
            state.append(y)

        attack = np.array(picks)[..., None]
        a = np.where(attack, att, rel)
        apow = np.where(attack, *tables)
        scan = (a * apow) * np.array(starts)[..., None] \
            + (1.0 - a) * apow * np.where(attack, *scans)
        return scan.reshape(blocks.shape[0], -1), np.array(state)

    def process_buffer(self, inputs, length):
        """Fused path: the whole-buffer envelope (``_scan_blocks``), then
        ONE whole-buffer dB/curve/gain pipeline.

        The envelope reproduces the quantum loop's block-sequential scan
        float for float; the transcendental pipeline after it is
        elementwise and therefore blocking-invariant.

        When the input is row-uniform (a batch broadcast — jitter only
        bites at the analyser readout, so inside a render it always is)
        and the envelope state is too, the whole pipeline runs on the one
        distinct row and broadcasts: per-row arithmetic never mixes rows,
        so row 0's floats ARE every row's floats.
        """
        x = inputs[0]
        math = self.context.config.math
        quantum = RENDER_QUANTUM_FRAMES
        batch = x.shape[0]
        uniform = (batch_uniform(x)
                   and bool(np.all(self._envelope == self._envelope[0])))
        work = x[:1] if uniform else x
        env0 = self._envelope[:1] if uniform else self._envelope

        level = np.abs(mix_to_channels(work, 1)[:, 0, :])    # (rows, length)
        # the full quanta in one view, then a partial last block with its
        # own power tables, exactly as process_block gets them
        full = length - length % quantum
        state = env0
        pieces = []
        for lo, hi in ((0, full), (full, length)):
            if hi > lo:
                blocks = level[:, lo:hi].reshape(len(level), -1,
                                                 min(quantum, hi - lo))
                piece, state = self._scan_blocks(blocks, state)
                pieces.append(piece)
        env = np.concatenate(pieces, axis=-1) if len(pieces) > 1 else pieces[0]
        self._envelope = np.broadcast_to(state, (batch,)).copy() if uniform else state

        gain_db, gain_lin = self._gain_pipeline(env, math)
        # the spec-style reduction attr reflects the most recent block
        last_n = length - (length - 1) // quantum * quantum
        tail = gain_db[:, length - last_n:]
        if uniform:
            tail = np.broadcast_to(tail, (batch, last_n))
        self._set_reduction(tail)
        y = work * gain_lin[:, None, :]
        return np.broadcast_to(y, x.shape) if uniform else y
