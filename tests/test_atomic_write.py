"""The shared crash-safe writer (repro.io): torn-write simulations prove
datasets, run reports and analysis reports are never left partial."""
import json
import os

import pytest

from repro import run_study
from repro.io import atomic_write_json, atomic_write_text


class TestAtomicWriteHelpers:
    def test_writes_newline_terminated_json(self, tmp_path):
        path = tmp_path / "x.json"
        atomic_write_json(str(path), {"a": 1})
        assert path.read_text() == '{"a": 1}\n'
        assert list(tmp_path.iterdir()) == [path]  # no stray temp files

    def test_creates_missing_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "x.json"
        atomic_write_json(str(path), [1, 2])
        assert json.loads(path.read_text()) == [1, 2]

    def test_unserializable_payload_never_touches_target(self, tmp_path):
        """Serialization happens before any file I/O: a payload that blows
        up mid-encode leaves the previous complete file in place."""
        path = tmp_path / "x.json"
        atomic_write_json(str(path), {"ok": True})
        with pytest.raises(TypeError):
            atomic_write_json(str(path), {"ok": True, "boom": object()})
        assert json.loads(path.read_text()) == {"ok": True}
        assert list(tmp_path.iterdir()) == [path]

    def test_crash_during_write_keeps_old_file(self, tmp_path, monkeypatch):
        """Simulated crash between write and rename (fsync raises): the
        target keeps its old complete contents, the temp file is gone."""
        path = tmp_path / "x.json"
        atomic_write_text(str(path), "old complete contents")

        def exploding_fsync(fd):
            raise OSError("simulated crash mid-write")

        monkeypatch.setattr(os, "fsync", exploding_fsync)
        with pytest.raises(OSError, match="simulated crash"):
            atomic_write_text(str(path), "new partial contents")
        assert path.read_text() == "old complete contents"
        assert list(tmp_path.iterdir()) == [path]

    def test_failed_replace_cleans_up_temp_file(self, tmp_path, monkeypatch):
        """The rename itself failing (read-only target dir, ENOSPC on some
        filesystems) must not strand the fully-written temp file."""
        path = tmp_path / "x.json"
        atomic_write_text(str(path), "old complete contents")

        def exploding_replace(src, dst):
            raise OSError("simulated replace failure")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError, match="simulated replace"):
            atomic_write_text(str(path), "never lands")
        monkeypatch.undo()
        assert path.read_text() == "old complete contents"
        assert list(tmp_path.iterdir()) == [path]

    def test_unlink_failure_does_not_mask_write_error(self, tmp_path,
                                                      monkeypatch):
        """When cleanup itself fails, the caller still sees the original
        write error, not the secondary unlink error."""
        path = tmp_path / "x.json"
        monkeypatch.setattr(os, "fsync", lambda fd: (_ for _ in ()).throw(
            OSError("the real failure")))
        monkeypatch.setattr(os, "unlink", lambda p: (_ for _ in ()).throw(
            OSError("cleanup also failed")))
        with pytest.raises(OSError, match="the real failure"):
            atomic_write_text(str(path), "doomed")

    def test_fdopen_failure_closes_descriptor(self, tmp_path, monkeypatch):
        """If wrapping the raw fd fails, the fd is closed (no descriptor
        leak) and no temp file is left behind."""
        closed = []
        real_close = os.close

        def counting_close(fd):
            closed.append(fd)
            real_close(fd)

        def exploding_fdopen(fd, *args, **kwargs):
            monkeypatch.setattr(os, "close", counting_close)
            raise LookupError("unknown encoding: simulated")

        monkeypatch.setattr(os, "fdopen", exploding_fdopen)
        with pytest.raises(LookupError):
            atomic_write_text(str(tmp_path / "x.json"), "text")
        monkeypatch.undo()
        assert len(closed) == 1
        assert list(tmp_path.iterdir()) == []


class TestDatasetSave:
    def test_torn_save_keeps_previous_dataset(self, tmp_path):
        dataset = run_study(user_count=3, iterations=2, vectors=("dc",),
                            seed=1, workers=0)
        path = tmp_path / "ds.json"
        dataset.save(str(path))
        good = path.read_bytes()

        broken = run_study(user_count=3, iterations=2, vectors=("dc",),
                           seed=2, workers=0)
        broken.users[0]["poison"] = object()  # json.dumps will raise
        with pytest.raises(TypeError):
            broken.save(str(path))
        assert path.read_bytes() == good
        assert list(tmp_path.iterdir()) == [path]


class TestRunStudyReport:
    def test_torn_report_keeps_previous_report(self, tmp_path, monkeypatch):
        path = tmp_path / "report.json"
        run_study(user_count=3, iterations=2, vectors=("dc",), seed=1,
                  workers=0, report_path=str(path))
        good = json.loads(path.read_text())

        import repro.obs.report as obs_report
        real_build = obs_report.build_report

        def poisoned_build(*args, **kwargs):
            report = real_build(*args, **kwargs)
            report["poison"] = object()
            return report

        monkeypatch.setattr(obs_report, "build_report", poisoned_build)
        with pytest.raises(TypeError):
            run_study(user_count=3, iterations=2, vectors=("dc",), seed=2,
                      workers=0, report_path=str(path))
        assert json.loads(path.read_text()) == good
        assert list(tmp_path.iterdir()) == [path]


class TestDirectoryFsync:
    """The rename durability gap (satellite): after ``os.replace`` the
    new name lives only in the directory entry until the directory
    itself is fsync'd — every atomic writer must pay that fsync, and a
    kernel refusing it must not be papered over."""

    def test_atomic_writers_fsync_the_containing_directory(self, tmp_path,
                                                           monkeypatch):
        import repro.io as io_mod
        synced = []
        real = io_mod.fsync_dir
        monkeypatch.setattr(io_mod, "fsync_dir",
                            lambda d: (synced.append(d), real(d)))
        io_mod.atomic_write_text(str(tmp_path / "a.json"), "{}")
        io_mod.atomic_write_chunks(str(tmp_path / "b.json"), ["{", "}"])
        assert synced == [str(tmp_path), str(tmp_path)]

    def test_injected_dir_fsync_failure_propagates(self, tmp_path,
                                                   monkeypatch):
        """A real fsync failure (EIO) on the directory must surface:
        returning success would claim durability the kernel refused."""
        from repro.io import atomic_write_text
        target = tmp_path / "x.json"
        atomic_write_text(str(target), "old")

        real_fsync = os.fsync

        def failing_dir_fsync(fd):
            if os.fstat(fd).st_mode & 0o40000:  # only directory fds fail
                raise OSError(5, "Input/output error")
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", failing_dir_fsync)
        with pytest.raises(OSError, match="Input/output"):
            atomic_write_text(str(target), "new")
        monkeypatch.undo()
        # the rename itself happened; only its durability promise failed
        assert target.read_text() == "new"

    def test_unsupported_dir_fsync_is_skipped(self, tmp_path, monkeypatch):
        """EINVAL/ENOTSUP (network mounts, platforms without directory
        fds) degrade gracefully — nothing stronger exists there."""
        import errno
        from repro.io import atomic_write_text

        def unsupported_fsync(fd):
            if os.fstat(fd).st_mode & 0o40000:
                raise OSError(errno.EINVAL, "Invalid argument")

        monkeypatch.setattr(os, "fsync", unsupported_fsync)
        atomic_write_text(str(tmp_path / "x.json"), "ok")
        assert (tmp_path / "x.json").read_text() == "ok"

    def test_unopenable_directory_is_skipped(self, monkeypatch, tmp_path):
        from repro.io import fsync_dir
        real_open = os.open

        def no_dir_fds(path, flags, *a, **kw):
            raise OSError("directory fds unsupported")

        monkeypatch.setattr(os, "open", no_dir_fds)
        fsync_dir(str(tmp_path))  # must not raise
        monkeypatch.undo()
        assert real_open is os.open
