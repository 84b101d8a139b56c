"""Service durability: append-only WAL + atomic snapshots.

The write-ahead discipline is the classic one: a visit is appended to
the WAL and fsync'd *before* it mutates identity state or is acked, so
every acked visit survives a SIGKILL. Appends only write and flush;
``WriteAheadLog.sync()`` is the one fsync, and the engine calls it once
per ingest batch, before acking any visit in it (group commit).
Recovery loads the latest intact snapshot (an atomic, dir-fsync'd
whole-state document stamped with the WAL byte offset it covers) and
replays the WAL from that offset through the same
``ServiceState.apply`` path live ingest uses — one code path, so a
replayed state is byte-identical to an uninterrupted run's by
construction.

Both files go through the crash-safe file layer (``repro.io``), which
decides what a torn or malformed one is:

* **Torn WAL tail** — a kill mid-append leaves a partial final line.
  ``read_wal`` stops at the first bad line, tolerating a torn tail (the
  records before it are intact) and reporting it; re-opening the log
  for append moves the fragment to ``<path>.corrupt`` and resumes on a
  clean line boundary. The un-acked visit is simply re-sent by the
  client (visit ids deduplicate).
* **Torn or malformed snapshot** — a kill mid-snapshot (simulated by the
  ``crashed_snapshot`` fault; impossible through the atomic writer), or
  a field of the wrong type such as a negative ``wal_offset``, is
  quarantined on load and recovery falls back to replaying the whole WAL
  from offset 0 — the WAL is never truncated, so the fallback is always
  complete.
"""
from __future__ import annotations

import json
import os

from ..io import JsonlLog, atomic_write_text, load_document, scan_lines
from ..resilience import faults
from ..schema import COUNT, OBJECT
from .errors import ServiceCrashed

WAL_NAME = "wal.jsonl"
SNAPSHOT_NAME = "snapshot.json"

SNAPSHOT_KIND = "repro.service.snapshot"
SNAPSHOT_FORMAT = 1

_SNAPSHOT = {"kind": SNAPSHOT_KIND, "format": SNAPSHOT_FORMAT,
             "wal_offset": COUNT, "state": OBJECT}


def read_wal(path: str, offset: int = 0):
    """Parse WAL records from byte ``offset`` up to the first bad line.

    Returns ``(records, torn_tail, problems)``; a missing file is an
    empty log. ``torn_tail`` is True when bytes follow the last intact
    record: a partial final record is tolerated (its visit was never
    acked), a bad line before the end is reported as corrupt."""
    try:
        with open(path, "rb") as fh:
            fh.seek(offset)
            data = fh.read()
    except FileNotFoundError:
        return [], False, []
    records = []
    for start, end, record in scan_lines(data):
        if record is None:
            problem = (f"torn tail: {end - start} bytes"
                       if end == len(data)
                       else f"corrupt record at byte {offset + start}")
            return records, True, [problem]
        records.append(record)
    return records, False, []


class WriteAheadLog(JsonlLog):
    """The service's visit log: a ``JsonlLog`` whose ``sync()`` is the
    commit point acks wait behind."""

    _unsynced = False

    def append(self, record: dict) -> None:
        """Write and flush one record. May raise ``ServiceCrashed`` under
        an injected ``torn_wal`` fault — the fragment is already on disk,
        exactly as a SIGKILL would leave."""
        line = json.dumps(record, sort_keys=True) + "\n"
        if faults.torn_wal(self._fh, line):
            self._fh.close()
            raise ServiceCrashed("injected torn WAL append")
        self._write(line)
        self._unsynced = True

    def sync(self) -> None:
        """fsync every append since the last sync (appends are flushed)."""
        if self._unsynced:
            os.fsync(self._fh.fileno())
            self._unsynced = False

    def close(self) -> None:
        if self._fh is not None and not self._fh.closed:
            self.sync()
        super().close()


class SnapshotStore:
    """The periodic whole-state snapshot bounding replay work."""

    def __init__(self, path: str):
        self.path = path

    def write(self, state: dict, wal_offset: int) -> bool:
        """Atomically persist ``state`` as covering the WAL up to
        ``wal_offset``; False when an injected ``crashed_snapshot``
        fault left a torn file instead (recovery will quarantine it and
        fall back to a full WAL replay)."""
        payload = {"kind": SNAPSHOT_KIND, "format": SNAPSHOT_FORMAT,
                   "wal_offset": int(wal_offset), "state": state}
        text = json.dumps(payload, sort_keys=True) + "\n"
        if faults.crashed_snapshot(self.path, text):
            return False
        atomic_write_text(self.path, text)
        return True

    def load(self):
        """Returns ``(state, wal_offset, problem)``: ``(None, 0, None)``
        when there is no snapshot, ``(None, 0, problem)`` when it was
        unreadable or malformed and is quarantined — either way, replay
        the whole WAL."""
        payload, problem = load_document(self.path, _SNAPSHOT, "snapshot")
        if payload is None:
            return None, 0, problem
        return payload["state"], payload["wal_offset"], None
