"""Crash-safe JSON/text writes shared across the repo.

Every artefact this codebase persists — study datasets, checkpoints,
run reports, analysis reports — is a single JSON document that
some later stage trusts completely. A bare ``open(path, "w")`` can leave
a torn file if the process dies mid-dump; the reader then sees invalid
JSON (best case) or a silently truncated payload (worst case).

``atomic_write_text`` is the one writer: it dumps to a same-directory
temp file, flushes and fsyncs it, renames it over the target with
``os.replace``, then fsyncs the *containing directory*. Readers observe
either the complete old file or the complete new one, never a partial
write — even across a crash at any point of the sequence. The temp file
is unlinked on failure, so an aborted write leaves no stray ``*.tmp``
behind either.

The directory fsync closes the classic rename durability gap: fsyncing
the temp file makes its *contents* durable, but the rename itself lives
in the directory entry — until the directory is synced, a power loss can
resurface the old file (or, for a first write, no file at all) even
though ``os.replace`` returned. Every writer here pays that one extra
fsync; ``fsync_dir`` is exported for append-style writers (WALs, event
logs) that need their newly created file's *existence* to be durable.
"""
from __future__ import annotations

import errno
import json
import os
import tempfile


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


def atomic_write_text(path: str, text: str, encoding: str = "utf-8") -> None:
    """Atomically replace ``path`` with ``text`` (creating directories)."""
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
            fh.write(text)
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


def atomic_write_chunks(path: str, chunks, encoding: str = "utf-8") -> None:
    """Atomically replace ``path`` with the concatenation of ``chunks``.

    Same crash-safety contract as ``atomic_write_text`` — readers observe
    the complete old file or the complete new one — but the content
    arrives as an iterable of string chunks written straight to the temp
    file, so the full document never has to exist in memory. This is how
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
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_json(path: str, payload, *, indent: int | None = None,
                      sort_keys: bool = False) -> None:
    """Atomically write ``payload`` as JSON (newline-terminated).

    Serialization happens *before* any file is touched, so a payload that
    fails to encode cannot clobber an existing file — the target keeps
    its previous complete contents.
    """
    text = json.dumps(payload, indent=indent, sort_keys=sort_keys) + "\n"
    atomic_write_text(path, text)
