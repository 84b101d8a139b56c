"""Vector API shared by all fingerprinting vectors.

``render_batch`` is the one render path: it renders a (vector, stack)
group's jitter paths with one graph build, one engine pass and one
readout, and ``render`` is its batch of one. It is the one place a
batch is deduplicated: it reads out and digests each distinct canonical
path once and gives every row its path's eFP. An audio vector supplies
only its graph (``_build``) and inherits one of the two readouts:

- ``AnalyserVector``: the AnalyserNode's frequency data, one row per
  distinct jitter path, each path applied at the readout (fft, hybrid,
  merged, am, fm);
- ``SampleSumVector``: the sum of |samples| 4500..5000 of the rendered
  buffer, which never touches the analyser (dc, custom).

Comparator vectors implement ``_features(stack, jitter)`` and render one
row at a time through the base fallback.

Every vector names the ``Device`` field its stack comes from in
``stack_field``: ``"stack"`` (the audio stack) for the audio vectors and
``mathjs``, and ``"ua"``, ``"canvas"`` or ``"fonts"`` for the other
comparators. ``stack_of`` reads that field; the study planner groups a
population's devices by the identity of each field's object and calls
``stack_of`` once per distinct object, so the sampler's shared stacks
are keyed once, not once per user.
"""
from __future__ import annotations

import hashlib
import re

import numpy as np

from ..platform.jitter import REFERENCE_PATH, parse_path
from ..webaudio import OfflineAudioContext

#: frames rendered by every audio vector (the classic 1ch/5000/44.1k probe
#: uses a 5000-frame buffer; we keep that shape across sample rates)
RENDER_LENGTH = 5000


_EFP = re.compile("[0-9a-f]{32}")


def digest(payload) -> str:
    """eFP digest: md5 over the exact bytes of the rendered features."""
    if isinstance(payload, np.ndarray):
        # md5 reads a C-contiguous float64 array through its buffer: the
        # same bytes as ``tobytes()``, without the copy
        data = (payload if payload.dtype == np.float64
                and payload.flags.c_contiguous
                else np.ascontiguousarray(payload, dtype=np.float64))
    elif isinstance(payload, str):
        data = payload.encode("utf-8")
    else:
        data = repr(payload).encode("utf-8")
    return hashlib.md5(data).hexdigest()


def is_efp(value) -> bool:
    """True for a well-formed eFP: a ``digest``, 32 lowercase hex digits.
    Anything else reaching a consumer is a corrupted render or a
    malformed visit."""
    return isinstance(value, str) and _EFP.fullmatch(value) is not None


class AudioVector:
    """Base class. Subclasses implement ``_features_batch(stack, jitters)``
    (one engine pass for all rows) or ``_features(stack, jitter)`` (one
    row at a time)."""

    name = "abstract"
    #: "audio" vectors render through the webaudio engine off the device's
    #: AudioStack; "comparator" vectors (canvas/fonts/UA/mathjs) fingerprint
    #: a different per-device stack via ``stack_of`` — the analysis layer
    #: dispatches its Table 2 vs Table 3 sections on this
    kind = "audio"
    #: vectors that never touch the AnalyserNode ignore the jitter path
    uses_analyser = True
    #: the ``Device`` field holding the stack this vector fingerprints
    stack_field = "stack"

    def stack_of(self, device):
        """The per-device stack this vector fingerprints: the device's
        ``stack_field``. The study planner keys equivalence classes on
        ``stack_of(device).cache_key()``. A hand-built device may leave a
        comparator field ``None``; that raises a ``ValueError``."""
        stack = getattr(device, self.stack_field)
        if stack is None:
            raise ValueError(
                f"device {device.user_id!r} has {self.stack_field}=None; "
                f"the {self.name} vector needs sampler-built devices")
        return stack

    def render(self, stack, jitter_path: str | None = None) -> str:
        """Pure render: same (stack, path) -> bit-identical eFP, always."""
        return self.render_batch(stack, [jitter_path])[0]

    def render_batch(self, stack, jitter_paths) -> list[str]:
        """Batched pure render: one graph build + one engine pass for all
        paths of a (vector, stack) group, and one readout row per distinct
        canonical path in first-seen order. Returns one eFP per path; each
        equals the path rendered alone (pinned)."""
        first: dict[str, int] = {}  # canonical path -> its readout row
        inverse = [first.setdefault(self.canonical_path(p), len(first))
                   for p in jitter_paths]
        if not first:
            return []
        jitters = [parse_path(p) if self.uses_analyser else None
                   for p in first]
        efps = [digest(f) for f in self._features_batch(stack, jitters)]
        return [efps[i] for i in inverse]

    def _features_batch(self, stack, jitters):
        """Fallback: one row at a time."""
        return [self._features(stack, jitter) for jitter in jitters]

    def canonical_path(self, jitter_path: str | None) -> str:
        """The path component of this vector's cache key."""
        if not self.uses_analyser:
            return "-"
        return jitter_path if jitter_path is not None else REFERENCE_PATH

    def _features(self, stack, jitter):  # pragma: no cover
        raise NotImplementedError


def _render(vector, stack):
    """Build ``vector``'s graph in a mono ``RENDER_LENGTH`` context on
    ``stack`` and render it once. Returns the rendered ``AudioBuffer``
    and what ``_build`` returned."""
    context = OfflineAudioContext(1, RENDER_LENGTH, stack.sample_rate,
                                  config=stack.realize())
    built = vector._build(context)
    return context.start_rendering(), built


class AnalyserVector(AudioVector):
    """Frequency-data readout: ``_build`` returns the graph's analyser.
    The engine pass is jitter-independent; each jitter path is applied
    at the analyser readout, one row per path."""

    uses_analyser = True

    def _features_batch(self, stack, jitters):
        _, analyser = _render(self, stack)
        return list(analyser.get_float_frequency_data(jitters))


class SampleSumVector(AudioVector):
    """Sample-sum readout (the compressor probe of SNIPPETS.md #1): the
    eFP is the sum of |samples| 4500..5000 of the rendered buffer. Never
    touches the analyser, so it is bit-stable under load."""

    uses_analyser = False

    def _features_batch(self, stack, jitters):
        buffer, _ = _render(self, stack)
        # the path is ignored, so ``render_batch`` sends one row: one
        # 500-element pairwise sum per render
        samples = buffer.get_channel_data(0)[4500:5000]
        return [f"{np.sum(np.abs(samples)):.17g}"] * len(jitters)
