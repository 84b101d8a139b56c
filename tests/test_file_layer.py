"""The crash-safe file layer (``repro.io``) through its callers.

One table drives the kinded-document loader through both documents
that use it — service snapshot, shard manifest — over the four ways
such a file goes wrong. Hypothesis properties then
cut each append-only JSONL log (the service WAL, the study event log) at
*any* byte offset, not a few hand-picked ones: reopening keeps exactly
the complete lines, quarantines the rest, and a service recovered from
the cut WAL holds the state of the prefix it kept. Run them longer with
``HYPOTHESIS_PROFILE=deep``.
"""
import json
import os
import tempfile

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from repro.obs import EventLog, make_event, read_events
from repro.population import ShardIntegrityError
from repro.population.shards import (SHARD_FORMAT, SHARD_KIND, load_manifest,
                                     study_fingerprint)
from repro.service import (FingerprintService, ServiceState, SnapshotStore,
                           WriteAheadLog, read_wal)
from repro.service.wal import SNAPSHOT_NAME, WAL_NAME
from repro.webaudio import ENGINE_VERSION

STUDY = study_fingerprint(7, 3, 2, ("dc",))
VECTORS = ("dc",)

#: a fixed visit stream: three users, one of them switching browser
VISITS = [{"visit_id": f"v{i}", "user": f"u{i % 3}", "os": "linux",
           "browser": "chrome" if i == 7 else "firefox",
           "efps": {"dc": f"{i % 2 + 1:032x}"}} for i in range(12)]
WAL_LINES = [(json.dumps(v, sort_keys=True) + "\n").encode() for v in VISITS]
WAL_BYTES = b"".join(WAL_LINES)
SNAPSHOT_AT = 5
SNAPSHOT_OFFSET = len(b"".join(WAL_LINES[:SNAPSHOT_AT]))
MID_LAST_RECORD = len(WAL_BYTES) - len(WAL_LINES[-1]) // 2

EVENTS = [dict(make_event("cache.miss", key=f"k{i}"), seq=i)
          for i in range(8)]


def _applied(records) -> ServiceState:
    state = ServiceState(VECTORS)
    for record in records:
        state.apply(record)
    return state


# -- one loader, two documents ------------------------------------------------

def _write_snapshot(path):
    SnapshotStore(path).write(ServiceState(VECTORS).state_dict(), 0)


def _load_snapshot(path):
    state, _, problem = SnapshotStore(path).load()
    return state, problem


def _write_manifest(path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"kind": SHARD_KIND, "format": SHARD_FORMAT,
                   "study": STUDY, "engine_version": ENGINE_VERSION,
                   "shard": {"index": 0, "start": 0, "stop": 3, "users": 3},
                   "data": {"file": "shard.jsonl", "bytes": 0,
                            "sha256": "0" * 64, "records": 3}}, fh)


def _load_manifest(path):
    try:
        return load_manifest(path), None
    except ShardIntegrityError as exc:
        return None, str(exc)


#: name the problem must carry, writer, loader -> (payload, problem), and
#: the field damages that keep the file valid JSON of the right kind
DOCUMENTS = {
    "snapshot": ("snapshot", _write_snapshot, _load_snapshot,
                 [("wal_offset", -5), ("wal_offset", True),
                  ("state", None)]),
    "manifest": ("shard manifest", _write_manifest, _load_manifest,
                 [("data", {"file": "shard.jsonl", "bytes": "12",
                            "sha256": "0" * 64, "records": 3}),
                  ("study", ["seed", 7]), ("format", True),
                  ("engine_version", None),
                  ("shard", {"index": 0, "start": 0, "stop": -3,
                             "users": 3})]),
}


def _damage(path, case, field=None, value=None):
    if case == "missing":
        os.remove(path)
        return
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if case == "not_json":
        text = text[:len(text) // 3]
    else:
        payload = json.loads(text)
        if case == "wrong_kind":
            payload["kind"] = "something.else"
        else:
            payload[field] = value
        text = json.dumps(payload)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _cases():
    for document, (_, _, _, damages) in DOCUMENTS.items():
        for case in ("missing", "not_json", "wrong_kind"):
            yield pytest.param(document, case, None, None,
                               id=f"{document}-{case}")
        for field, value in damages:
            yield pytest.param(document, "wrong_type", field, value,
                               id=f"{document}-{field}={value!r}")


@pytest.mark.parametrize("document, case, field, value", list(_cases()))
def test_loader_quarantines_what_it_cannot_trust(tmp_path, document, case,
                                                 field, value):
    name, write, load, _ = DOCUMENTS[document]
    path = str(tmp_path / "doc.json")
    write(path)
    _damage(path, case, field, value)
    payload, problem = load(path)
    assert payload is None
    if case == "missing":
        assert problem is None
        assert os.listdir(tmp_path) == []  # nothing moved, nothing made
        return
    assert name in problem
    assert ("unreadable" if case == "not_json" else "malformed") in problem
    assert not os.path.exists(path)
    assert os.path.exists(path + ".corrupt")


@pytest.mark.parametrize("offset", [-5, True])
def test_snapshot_with_a_bad_wal_offset_falls_back_to_full_replay(
        tmp_path, offset):
    """A negative offset used to make ``recover()`` seek before the
    file's start, and ``true`` read as offset 1 resumed mid-record."""
    directory = str(tmp_path / "svc")
    os.makedirs(directory)
    with open(os.path.join(directory, WAL_NAME), "wb") as fh:
        fh.write(WAL_BYTES)
    store = SnapshotStore(os.path.join(directory, SNAPSHOT_NAME))
    store.write(_applied(VISITS[:SNAPSHOT_AT]).state_dict(), SNAPSHOT_OFFSET)
    with open(store.path, encoding="utf-8") as fh:
        payload = json.load(fh)
    payload["wal_offset"] = offset
    with open(store.path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    service = FingerprintService(directory, VECTORS)
    info = service.recover()
    assert "snapshot" in info["snapshot_problem"]
    assert not info["resumed_from_snapshot"]
    assert info["replayed"] == len(VISITS)
    assert info["wal_problems"] == []
    assert service.state_bytes() == _applied(VISITS).canonical_bytes()


# -- any-offset truncation pins -----------------------------------------------

def _complete_lines(data: bytes, cut: int) -> int:
    """How many whole lines of ``data`` lie before byte ``cut``."""
    return data[:cut].count(b"\n")


def _check_cut_log(log_class, read, records, cut_at):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "log.jsonl")
        with log_class(path) as log:
            for record in records:
                log.append(record)
            assert log.offset == os.path.getsize(path)
        with open(path, "rb") as fh:
            data = fh.read()
        assert data == b"".join((json.dumps(r, sort_keys=True) + "\n")
                                .encode() for r in records)
        cut = cut_at(len(data))
        with open(path, "r+b") as fh:
            fh.truncate(cut)
        kept = _complete_lines(data, cut)
        keep_end = data.rfind(b"\n", 0, cut) + 1
        torn = keep_end < cut

        before = read(path)  # the reader tolerates the torn tail
        assert before[0] == records[:kept]
        assert bool(before[1]) == torn

        with log_class(path) as reopened:
            assert reopened.torn_tail_repaired == torn
            assert reopened.offset == keep_end
        with open(path, "rb") as fh:
            assert fh.read() == data[:keep_end]
        quarantined = path + ".corrupt"
        if torn:
            with open(quarantined, "rb") as fh:
                assert fh.read() == data[keep_end:cut]
        else:
            assert not os.path.exists(quarantined)
        assert read(path) == (records[:kept], [])


def _wal_view(path):
    records, torn, problems = read_wal(path)
    assert torn == bool(problems)
    return records, problems


@given(n=st.integers(1, len(VISITS)), data=st.data())
def test_wal_cut_at_any_offset_reopens_to_its_complete_lines(n, data):
    _check_cut_log(WriteAheadLog, _wal_view, VISITS[:n],
                   lambda size: data.draw(st.integers(0, size), label="cut"))


@given(n=st.integers(1, len(EVENTS)), data=st.data())
def test_event_log_cut_at_any_offset_reopens_to_its_complete_lines(n, data):
    _check_cut_log(EventLog, read_events, EVENTS[:n],
                   lambda size: data.draw(st.integers(0, size), label="cut"))


@given(cut=st.integers(0, len(WAL_BYTES)),
       snapshot=st.sampled_from(["none", "torn", "good"]))
# the three crash points the kill-replay tests pin: killed mid-record,
# killed before a snapshot committed, killed past a snapshot mid-record
@example(cut=MID_LAST_RECORD, snapshot="none")
@example(cut=len(WAL_BYTES), snapshot="torn")
@example(cut=MID_LAST_RECORD, snapshot="good")
def test_recovery_from_a_wal_cut_anywhere_equals_applying_its_prefix(
        cut, snapshot):
    # a snapshot only ever covers WAL bytes that were already synced
    assume(snapshot != "good" or cut >= SNAPSHOT_OFFSET)
    with tempfile.TemporaryDirectory() as directory:
        with open(os.path.join(directory, WAL_NAME), "wb") as fh:
            fh.write(WAL_BYTES[:cut])
        if snapshot != "none":
            store = SnapshotStore(os.path.join(directory, SNAPSHOT_NAME))
            store.write(_applied(VISITS[:SNAPSHOT_AT]).state_dict(),
                        SNAPSHOT_OFFSET)
            if snapshot == "torn":
                with open(store.path, "r+b") as fh:
                    fh.truncate(os.path.getsize(store.path) // 3)
        service = FingerprintService(directory, VECTORS)
        info = service.recover()
    kept = _complete_lines(WAL_BYTES, cut)
    assert service.state_bytes() == _applied(VISITS[:kept]).canonical_bytes()
    assert info["resumed_from_snapshot"] == (snapshot == "good")
    assert (info["snapshot_problem"] is not None) == (snapshot == "torn")
    assert info["wal_torn_tail"] == (cut > WAL_BYTES.rfind(b"\n", 0, cut) + 1)
