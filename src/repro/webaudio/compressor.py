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
from .node import AudioNode, mix_to_channels

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
        #: envelope state carried from block to block
        self._envelope = 0.0
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

    def _scan_block(self, level: np.ndarray, env: float) -> np.ndarray:
        """One quantum envelope step from the state ``env``: pick attack
        vs release from the block peak (one comparison per *block*, never
        per sample), then the closed-form one-pole scan
        ``y[n] = a*y[n-1] + (1-a)*x[n]`` over the (n,) ``level``, its
        power table from the per-coefficient cache."""
        a = (self._attack_coef if level.max() > env
             else self._release_coef)
        apow = self._pow_table(a, level.shape[-1])
        s = np.cumsum(level / apow)
        return (a * apow) * env + (1.0 - a) * apow * s

    def _gain_pipeline(self, env: np.ndarray, math) -> tuple[np.ndarray, np.ndarray]:
        """level -> dB -> curve -> linear gain, all elementwise — identical
        whether fed one 128-frame block or the whole buffer."""
        env_db = 20.0 * math.log10(np.maximum(env, _DB_FLOOR))
        gain_db = self._curve_db(env_db, math) - env_db
        gain_lin = math.pow(10.0, gain_db / 20.0) * self._makeup
        return gain_db, gain_lin

    def process_block(self, inputs, frame0, n):
        x = inputs[0]
        math = self.context.config.math

        level = np.abs(mix_to_channels(x, 1)[0])             # (n,)
        env = self._scan_block(level, self._envelope)
        self._envelope = float(env[-1])

        gain_db, gain_lin = self._gain_pipeline(env, math)
        self.reduction = float(gain_db.min())
        return x * gain_lin

    def _scan_blocks(self, blocks: np.ndarray,
                     env: float) -> tuple[np.ndarray, float]:
        """``_scan_block`` over every block of a (k, n) view, from the
        state ``env``: returns the (k * n,) envelope and the state after
        the last block, every float equal to a block-by-block scan's.

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
        picks, starts = [], []
        y = env
        for peak, s_att, s_rel in zip(blocks.max(axis=-1).tolist(),
                                      scans[0][:, -1].tolist(),
                                      scans[1][:, -1].tolist()):
            pick = peak > y
            picks.append(pick)
            starts.append(y)
            a, p, s = (att, p_att, s_att) if pick else (rel, p_rel, s_rel)
            y = (a * p) * y + (1.0 - a) * p * s

        attack = np.array(picks)[:, None]
        a = np.where(attack, att, rel)
        apow = np.where(attack, *tables)
        scan = (a * apow) * np.array(starts)[:, None] \
            + (1.0 - a) * apow * np.where(attack, *scans)
        return scan.reshape(-1), y

    def process_buffer(self, inputs, length):
        """Fused path: the whole-buffer envelope (``_scan_blocks``), then
        ONE whole-buffer dB/curve/gain pipeline.

        The envelope reproduces the quantum loop's block-sequential scan
        float for float; the transcendental pipeline after it is
        elementwise and therefore blocking-invariant.
        """
        x = inputs[0]
        math = self.context.config.math
        quantum = RENDER_QUANTUM_FRAMES

        level = np.abs(mix_to_channels(x, 1)[0])             # (length,)
        # the full quanta in one view, then a partial last block with its
        # own power tables, exactly as process_block gets them
        full = length - length % quantum
        pieces = []
        for lo, hi in ((0, full), (full, length)):
            if hi > lo:
                blocks = level[lo:hi].reshape(-1, min(quantum, hi - lo))
                piece, self._envelope = self._scan_blocks(blocks,
                                                          self._envelope)
                pieces.append(piece)
        env = np.concatenate(pieces) if len(pieces) > 1 else pieces[0]

        gain_db, gain_lin = self._gain_pipeline(env, math)
        # the spec-style reduction attr reflects the most recent block
        last_n = length - (length - 1) // quantum * quantum
        self.reduction = float(gain_db[length - last_n:].min())
        return x * gain_lin
