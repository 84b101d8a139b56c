"""Make `src/` importable when pytest is run from the repo root.

The tier-1 command already sets PYTHONPATH=src; this keeps a bare
`python -m pytest` working too (and keeps forked pool workers happy).

It also registers the hypothesis profiles the property tests run under:
a bounded default that keeps tier-1 fast, and ``deep`` for a longer
search (``HYPOTHESIS_PROFILE=deep python -m pytest ...``).
"""
import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

try:
    from hypothesis import settings
except ImportError:  # only the property tests need it
    pass
else:
    settings.register_profile("default", max_examples=15, deadline=None)
    settings.register_profile("deep", max_examples=300, deadline=None)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
