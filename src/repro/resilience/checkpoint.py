"""Study render checkpoints: crash-safe progress snapshots + resume.

A checkpoint is one JSON document mapping completed render-class keys to
their eFPs, stamped with the study fingerprint (seed/user_count/
iterations/vectors) that produced them. ``run_study(checkpoint_path=...)``
writes one every N completed render jobs through the crash-safe file
layer (``repro.io``), so a killed run resumes by re-rendering only the
classes the checkpoint doesn't already hold — the resumed dataset is
byte-identical to an uninterrupted one because eFPs are pure functions
of their key.

Resume is defensive in both directions: a checkpoint whose fingerprint
belongs to a *different* study raises (silently mixing studies would
poison the dataset), while a file the layer's loader rejects — torn
(the artifact of a kill mid-write predating the atomic writer, or an
injected ``torn_checkpoint`` fault) or off its schema shape — is
quarantined to ``<path>.corrupt`` and the run simply starts cold.
"""
from __future__ import annotations

import json

from ..io import atomic_write_text, load_document
from ..schema import OBJECT, STRING, each
from . import faults

CHECKPOINT_KIND = "repro.study.checkpoint"
CHECKPOINT_FORMAT = 1

_CHECKPOINT = {"kind": CHECKPOINT_KIND, "format": CHECKPOINT_FORMAT,
               "study": OBJECT, "rendered": each(STRING)}


def study_fingerprint(seed: int, user_count: int, iterations: int,
                      vectors) -> dict:
    return {"seed": seed, "user_count": user_count,
            "iterations": iterations, "vectors": list(vectors)}


def write_checkpoint(path: str, study: dict, rendered: dict,
                     completed_jobs: int) -> bool:
    """Atomically persist progress; False when an injected torn-write
    fault left a truncated file instead (simulating a crash mid-write)."""
    payload = {
        "kind": CHECKPOINT_KIND,
        "format": CHECKPOINT_FORMAT,
        "study": dict(study),
        "completed_jobs": completed_jobs,
        "rendered": dict(rendered),
    }
    text = json.dumps(payload) + "\n"
    if faults.torn_checkpoint(path, text):
        return False
    atomic_write_text(path, text)
    return True


def load_checkpoint(path: str, study: dict) -> tuple[dict[str, str], str | None]:
    """Load a checkpoint for resuming ``study``.

    Returns ``(rendered, problem)``: a missing file is a clean cold start
    (``({}, None)``); an unreadable or malformed file is quarantined to
    ``<path>.corrupt`` and reported (``({}, problem)``); a well-formed
    checkpoint from a different study fingerprint raises ``ValueError``
    naming the mismatched field and stays where it is.
    """
    payload, problem = load_document(path, _CHECKPOINT, "checkpoint")
    if payload is None:
        return {}, problem
    theirs = payload["study"]
    # compare every field the expected fingerprint carries: the base
    # study identity, plus any extra scoping a caller stamped in (the
    # sharded driver adds a "shard" range so one shard's checkpoint can
    # never resume another's)
    for field in study:
        if theirs.get(field) != study[field]:
            raise ValueError(
                f"checkpoint at {path} belongs to a different study: "
                f"{field} is {theirs.get(field)!r}, this run has "
                f"{study[field]!r} — delete it (or point checkpoint_path "
                "elsewhere) to start fresh")
    return payload["rendered"], None
