"""Doc tripwire: README.md, DESIGN.md and EXPERIMENTS.md may only name
things that exist.

Three checks per document:

- every path beginning ``src/``, ``benchmarks/``, ``tests/`` or
  ``examples/`` exists (a glob must match at least one file);
- every inline-code span that begins with a dotted ``repro.`` name
  resolves to a module or a module attribute;
- every ``python -m X`` names a module Python can run.
"""
import glob
import importlib
import importlib.util
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")

_PATH = re.compile(r"(?<![\w./-])((?:src|benchmarks|tests|examples)/[\w./*-]*)")
_FENCED = re.compile(r"```.*?```", re.S)
_INLINE = re.compile(r"`([^`\n]+)`")
_REPRO_NAME = re.compile(r"repro(?:\.\w+)+")
_DASH_M = re.compile(r"python3? -m ([\w.]+)")


def _text(doc: str) -> str:
    with open(os.path.join(ROOT, doc), encoding="utf-8") as fh:
        return fh.read()


def _resolves(dotted: str) -> bool:
    """``dotted`` is a module, or an attribute chain on the longest
    importable module prefix."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def _runnable(module: str) -> bool:
    """``python -m module`` would run: a plain module, or a package with a
    ``__main__``."""
    try:
        spec = importlib.util.find_spec(module)
    except ImportError:
        return False
    if spec is None:
        return False
    if spec.submodule_search_locations is None:
        return True
    return importlib.util.find_spec(module + ".__main__") is not None


@pytest.mark.parametrize("doc", DOCS)
def test_named_paths_exist(doc):
    missing = sorted({path for path in
                      (m.rstrip(".,:;") for m in _PATH.findall(_text(doc)))
                      if not glob.glob(os.path.join(ROOT, path))})
    assert missing == [], f"{doc} names paths that do not exist: {missing}"


@pytest.mark.parametrize("doc", DOCS)
def test_repro_names_resolve(doc):
    inline = _INLINE.findall(_FENCED.sub("", _text(doc)))
    names = {m.group(0) for span in inline
             if (m := _REPRO_NAME.match(span.strip()))}
    unresolved = sorted(name for name in names if not _resolves(name))
    assert unresolved == [], f"{doc} names missing code: {unresolved}"


@pytest.mark.parametrize("doc", DOCS)
def test_python_dash_m_modules_run(doc):
    modules = set(_DASH_M.findall(_text(doc)))
    broken = sorted(module for module in modules if not _runnable(module))
    assert broken == [], f"{doc} runs modules that cannot run: {broken}"
