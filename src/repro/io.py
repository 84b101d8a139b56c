"""The crash-safe file layer: every artefact the program writes and later
trusts goes through here.

Two shapes of file cover them all, and this module is the one place that
decides what a torn or malformed one is, and where it goes:

* **Whole JSON documents** — study datasets, checkpoints, run / analysis
  reports, shard manifests, service snapshots. ``atomic_write_chunks`` is
  the one writer: it streams to a same-directory temp file, flushes and
  fsyncs it, renames it over the target with ``os.replace``, then fsyncs
  the *containing directory* (the rename lives in the directory entry;
  until that is synced a power loss can resurface the old file). Readers
  observe the complete old file or the complete new one, never a partial
  write; an aborted write unlinks its temp file. ``load_document`` is the
  one reader of a kinded document: it checks the payload against its
  ``repro.schema`` shape and quarantines an unreadable or misshapen file.
* **Append-only JSONL logs** — the study event log and the service WAL.
  ``JsonlLog`` writes one flushed, sorted-key line per append, so a
  SIGKILL tears at most the final line; opening a log moves that torn
  tail to ``<path>.corrupt`` and appends resume on a clean line boundary.
  ``scan_lines`` is the one parser behind every reader and the repair.

``quarantine`` moves a file the program can no longer trust aside to
``<path>.corrupt``, so the next run starts clean and the evidence stays.
"""
from __future__ import annotations

import errno
import json
import os
import tempfile

from .schema import problems as schema_problems


def fsync_dir(directory: str) -> None:
    """fsync a directory so renames/creations inside it are durable.

    A directory that cannot be opened (platforms without directory file
    descriptors, e.g. Windows) or whose filesystem rejects directory
    fsync (EINVAL/ENOTSUP on some network mounts) is skipped — there is
    nothing stronger available there. Any *real* fsync failure (EIO, …)
    propagates: returning normally would claim a durability the kernel
    just refused to provide.
    """
    try:
        fd = os.open(directory or ".", os.O_RDONLY)
    except OSError:
        return  # no directory fds on this platform; nothing to sync
    try:
        os.fsync(fd)
    except OSError as exc:
        if exc.errno not in (errno.EINVAL, errno.ENOTSUP):
            raise
    finally:
        os.close(fd)


def atomic_write_chunks(path: str, chunks, encoding: str = "utf-8") -> None:
    """Atomically replace ``path`` with the concatenation of ``chunks``
    (creating directories).

    The content arrives as an iterable of string chunks written straight
    to the temp file, so the full document never has to exist in memory:
    large streamed artefacts (study datasets, shard record files) keep
    their peak RSS at one-record size instead of one-file size.
    """
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        try:
            fh = os.fdopen(fd, "w", encoding=encoding)
        except BaseException:
            os.close(fd)  # fdopen never took ownership of the descriptor
            raise
        with fh:
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        fsync_dir(directory)
    except BaseException:
        # best-effort cleanup: never mask the original failure — a torn
        # write that ALSO cannot unlink its temp file must still raise
        # the write error, not the unlink error
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: str, text: str, encoding: str = "utf-8") -> None:
    """Atomically replace ``path`` with ``text`` (creating directories)."""
    atomic_write_chunks(path, (text,), encoding)


def atomic_write_json(path: str, payload, *, indent: int | None = None,
                      sort_keys: bool = False) -> None:
    """Atomically write ``payload`` as JSON (newline-terminated).

    Serialization happens *before* any file is touched, so a payload that
    fails to encode cannot clobber an existing file — the target keeps
    its previous complete contents.
    """
    text = json.dumps(payload, indent=indent, sort_keys=sort_keys) + "\n"
    atomic_write_text(path, text)


def quarantine(path: str) -> None:
    """Move ``path`` aside to ``<path>.corrupt``. Best-effort: the caller
    has already decided not to trust the file, so a failed move (say, the
    file is gone) changes nothing."""
    try:
        os.replace(path, path + ".corrupt")
    except OSError:
        pass


def load_document(path: str, shape, name: str):
    """Load the JSON document ``name`` at ``path`` and check its shape.

    Returns ``(payload, problem)``: ``(None, None)`` when there is no
    file; ``(None, problem)`` when it is unreadable or departs from
    ``shape`` (a ``repro.schema`` literal) — it is then quarantined to
    ``<path>.corrupt`` and ``problem`` names the document and the fault;
    otherwise ``(payload, None)``.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except FileNotFoundError:
        return None, None
    except (OSError, ValueError) as exc:  # ValueError: not JSON / UTF-8
        quarantine(path)
        return None, (f"{name} {path} is unreadable "
                      f"({exc.__class__.__name__})")
    found = schema_problems(payload, shape)
    if found:
        quarantine(path)
        return None, f"{name} {path} is malformed ({'; '.join(found)})"
    return payload, None


def scan_lines(data: bytes):
    """Yield ``(start, end, record)`` for each line of the JSONL bytes
    ``data``: ``end`` is the offset just past the line's newline, and
    ``record`` is the JSON object the line holds — or None when it holds
    none: unparseable, not an object, or a final fragment with no newline
    (every append writes its newline, so only a torn write leaves one).
    A bad line with ``end == len(data)`` is a torn tail; any earlier one
    means the file was damaged, not just cut."""
    start = 0
    while start < len(data):
        newline = data.find(b"\n", start)
        end = len(data) if newline < 0 else newline + 1
        record = None
        if newline >= 0:
            try:
                record = json.loads(data[start:newline].decode("utf-8"))
            except ValueError:  # includes UnicodeDecodeError
                pass
        yield start, end, record if isinstance(record, dict) else None
        start = end


class JsonlLog:
    """An append-only JSONL file: one flushed, sorted-key line per
    ``append``, so after a SIGKILL the OS page cache still holds every
    appended line and at most the in-flight one is torn.

    Opening creates the directory, moves a torn tail to
    ``<path>.corrupt`` and truncates it away (fsync'd, so appends resume
    on a durably clean line boundary; ``torn_tail_repaired`` says whether
    it did), and fsyncs the directory when it creates the file, so the
    log's *existence* is as durable as its lines. ``offset`` is the log's
    byte length: JSON lines are ASCII (``ensure_ascii``), so characters
    equal bytes.
    """

    def __init__(self, path: str):
        self.path = path
        directory = os.path.dirname(path) or "."
        os.makedirs(directory, exist_ok=True)
        self.torn_tail_repaired = self._quarantine_torn_tail()
        created = not os.path.exists(path)
        self._fh = open(path, "a", encoding="utf-8")
        if created:
            fsync_dir(directory)
        self.offset = os.path.getsize(path)

    def _quarantine_torn_tail(self) -> bool:
        try:
            with open(self.path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            return False
        good_end = next((start for start, _, record in scan_lines(data)
                         if record is None), len(data))
        if good_end == len(data):
            return False
        with open(self.path + ".corrupt", "ab") as fh:
            fh.write(data[good_end:])
        with open(self.path, "r+b") as fh:
            fh.truncate(good_end)
            os.fsync(fh.fileno())
        return True

    def append(self, record: dict) -> None:
        """Append ``record`` as one sorted-key JSON line, flushed."""
        self._write(json.dumps(record, sort_keys=True) + "\n")

    def _write(self, line: str) -> None:
        self._fh.write(line)
        self._fh.flush()
        self.offset += len(line)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
