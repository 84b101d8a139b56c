"""One shape walker for every JSON document the reproduction writes.

Run reports, analysis / tables / shard reports, shard manifests, study
checkpoints, service snapshots and saved ``StudyDataset`` payloads each
declare their shape as a schema literal:

  ``Check``     a named leaf predicate (``COUNT``, ``NUMBER``, ...)
  ``{k: s}``    an object whose listed keys must be present (others may be)
  ``[s]``       a homogeneous array
  ``each(s)``   a map: an object whose every value matches ``s``
  ``maybe(s)``  ``null`` or ``s``
  ``optional(s)``  as an object's value: the key may be absent; if
                present, its value matches ``s``
  a constant    ``kind`` / ``format``: equal in type *and* value, so
                ``true`` never passes for ``1``

``problems(document, schema)`` returns path-named problems such as
``vectors['dc'].stability.users must be a non-negative integer`` and
never raises, whatever the input. Each document's module checks only its
cross-field invariants, and only once the shape matched — so those
checks index without guards and cannot raise either.
"""
from __future__ import annotations


class Check:
    """A named leaf predicate: ``test(value)`` holds, or the value
    ``must be <want>``."""

    __slots__ = ("test", "want")

    def __init__(self, test, want: str):
        self.test = test
        self.want = want


class each:  # noqa: N801 — a schema form, spelled like one
    """A map: an object whose every value matches ``schema``."""

    __slots__ = ("schema",)

    def __init__(self, schema):
        self.schema = schema


class maybe:  # noqa: N801
    """``null`` or ``schema`` (a section a run may leave empty)."""

    __slots__ = ("schema",)

    def __init__(self, schema):
        self.schema = schema


class optional:  # noqa: N801
    """An object key that writers may leave out; present, it matches
    ``schema``."""

    __slots__ = ("schema",)

    def __init__(self, schema):
        self.schema = schema


def _number(value) -> bool:
    """An int or float, never a bool; an int must fit a float, because
    validators and renderers do float arithmetic on numbers."""
    if isinstance(value, float):
        return True
    if not _integer(value):
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True


def _integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


COUNT = Check(lambda v: _integer(v) and v >= 0, "a non-negative integer")
POSITIVE = Check(lambda v: _integer(v) and v > 0, "a positive integer")
NUMBER = Check(_number, "numeric")
NON_NEGATIVE = Check(lambda v: _number(v) and v >= 0, "a non-negative number")
STRING = Check(lambda v: isinstance(v, str), "a string")
BOOL = Check(lambda v: isinstance(v, bool), "a boolean")
OBJECT = Check(lambda v: isinstance(v, dict), "an object")
ARRAY = Check(lambda v: isinstance(v, list), "an array")
UNIT = Check(lambda v: _number(v) and 0.0 <= v <= 1.0 + 1e-9,
             "a number in [0, 1]")

#: the study fingerprint reports, manifests and datasets all carry
STUDY = {"seed": COUNT, "user_count": COUNT, "iterations": POSITIVE,
         "vectors": [STRING]}


def problems(document, schema) -> list[str]:
    """Every place ``document`` departs from ``schema`` (empty == match);
    an array reports only its first bad item."""
    out: list[str] = []
    _walk(document, schema, "", out)
    return out


def _walk(value, schema, path: str, out: list[str]) -> None:
    where = path or "document"
    if isinstance(schema, Check):
        if not schema.test(value):
            out.append(f"{where} must be {schema.want}")
    elif isinstance(schema, maybe):
        if value is not None:
            _walk(value, schema.schema, path, out)
    elif isinstance(schema, optional):
        _walk(value, schema.schema, path, out)
    elif isinstance(schema, (dict, each)):
        if not isinstance(value, dict):
            out.append(f"{where} must be an object")
        elif isinstance(schema, each):
            for key, item in value.items():
                _walk(item, schema.schema, f"{path}[{key!r}]", out)
        else:
            for key, sub in schema.items():
                at = f"{path}.{key}" if path else key
                if key in value:
                    _walk(value[key], sub, at, out)
                elif not isinstance(sub, optional):
                    out.append(f"{at} missing")
    elif isinstance(schema, list):
        if not isinstance(value, list):
            out.append(f"{where} must be an array")
            return
        for i, item in enumerate(value):
            before = len(out)
            _walk(item, schema[0], f"{path}[{i}]", out)
            if len(out) > before:
                break
    elif type(value) is not type(schema) or value != schema:
        out.append(f"{where} must be {schema!r}, got {value!r}")
