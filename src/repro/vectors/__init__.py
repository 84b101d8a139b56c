"""repro.vectors — fingerprinting vectors.

Every audio vector is a *pure function* ``render(stack, jitter_path) ->
eFP`` (an md5 hex digest, the paper's elementary fingerprint). Purity is
load-bearing: it is what lets the study runner collapse the 2093 x 30
grid into its equivalence classes — at seed 2021, 439,530 grid items
into 2,226 classes for the 7 audio vectors, and 690,690 into 3,404 for
all 11.

Comparator vectors (canvas, fonts, useragent, mathjs) ride the same
machinery: each names the device field holding the stack it
fingerprints (``stack_field``, read by ``stack_of``; mathjs projects the
audio stack onto its math backend) and renders a deterministic payload
from it, so the study driver, cache, and analysis treat every
fingerprint surface uniformly.
"""

from .base import AudioVector, digest  # noqa: F401
from .registry import (  # noqa: F401
    AUDIO_VECTORS,
    COMPARATOR_VECTORS,
    FULL_BATTERY,
    UnknownVectorError,
    VECTORS,
    audio_vector_names,
    comparator_vector_names,
    get_vector,
    register,
)

__all__ = [
    "AudioVector",
    "digest",
    "VECTORS",
    "AUDIO_VECTORS",
    "COMPARATOR_VECTORS",
    "FULL_BATTERY",
    "UnknownVectorError",
    "audio_vector_names",
    "comparator_vector_names",
    "get_vector",
    "register",
]
