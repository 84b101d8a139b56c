"""SupervisedExecutor unit coverage: retry/backoff, validation, bisection,
quarantine, budget, pool crash/hang recovery, worker exceptions, inline
fallback, reaping of every worker, workers outliving no supervisor, and
a randomised fault mix — all on synthetic workers, independent of the
render pipeline."""
import multiprocessing
import os
import select
import signal
import subprocess
import sys
import tempfile
import time
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs import Recorder
from repro.resilience import (RetryBudget, RetryPolicy, SimulatedWorkerCrash,
                              StudyExecutionError, SupervisedExecutor)

#: fast knobs so failure paths converge in milliseconds
FAST = RetryPolicy(base_delay_s=0.001, max_delay_s=0.005, job_deadline_s=10.0)


def _double(job):
    return job * 2


def _crash_once(job):
    """Pool worker: hard-dies (os._exit) the first time each marker is
    seen; clean on retry. The marker file is the cross-process ledger."""
    value, marker = job
    if marker and not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(5)
    return value * 2


def _hang_once(job):
    value, marker, seconds = job
    if marker and not os.path.exists(marker):
        open(marker, "w").close()
        time.sleep(seconds)
    return value * 2


class _UnpicklableError(RuntimeError):
    """Cannot cross a pipe: an attribute holds a lambda."""

    def __init__(self, message):
        super().__init__(message)
        self.hook = lambda: None


class _UnloadableError(RuntimeError):
    """Pickles, but its ``args`` do not fit ``__init__``: unpickling it
    raises ``TypeError``."""

    def __init__(self, message):
        super().__init__(message, "extra")


def _raise_once(job):
    """Pool worker: raises ``error(...)`` the first time each marker is
    seen."""
    value, marker, error = job
    if marker and not os.path.exists(marker):
        open(marker, "w").close()
        raise error(f"injected failure for {value}")
    return value * 2


def _no_survivor(call):
    """``call()``, which must return within a few seconds and leave no
    worker process behind."""
    start = time.monotonic()
    result = call()
    assert time.monotonic() - start < 10.0
    assert multiprocessing.active_children() == []
    return result


class _FlakyInline:
    """Raises for selected jobs until their failure allowance runs out."""

    def __init__(self, fail_jobs, failures=1, bad_value=None):
        self.fail_jobs = set(fail_jobs)
        self.failures = failures
        self.bad_value = bad_value
        self.calls = {}

    def __call__(self, job):
        count = self.calls.get(job, 0)
        self.calls[job] = count + 1
        if job in self.fail_jobs and count < self.failures:
            if self.bad_value is not None:
                return self.bad_value  # corrupted return, not an exception
            raise RuntimeError(f"injected failure for {job}")
        return job * 2


class TestInline:
    def test_happy_path_yields_every_job(self):
        ex = SupervisedExecutor(_double, workers=0, policy=FAST)
        assert sorted(ex.run(range(5))) == [0, 2, 4, 6, 8]
        summary = ex.summary()
        assert summary["retry"]["attempts"] == 5
        assert summary["retry"]["retries"] == 0
        assert summary["retry"]["quarantined"] == []
        assert summary["degraded"] == {"pool_rebuilds": 0,
                                       "inline_fallback": False}

    def test_retries_worker_exceptions(self):
        worker = _FlakyInline(fail_jobs={3}, failures=2)
        ex = SupervisedExecutor(worker, workers=0, policy=FAST)
        assert sorted(ex.run(range(5))) == [0, 2, 4, 6, 8]
        summary = ex.summary()["retry"]
        assert summary["worker_errors"] == 2
        assert summary["retries"] == 2
        assert summary["attempts"] == 7

    def test_corrupted_return_detected_and_retried(self):
        worker = _FlakyInline(fail_jobs={1}, failures=1, bad_value="garbage")
        ex = SupervisedExecutor(worker, workers=0, policy=FAST,
                                validator=lambda job, res: res == job * 2)
        assert sorted(ex.run(range(3))) == [0, 2, 4]
        assert ex.summary()["retry"]["corrupt_returns"] == 1

    def test_quarantines_after_max_attempts(self):
        worker = _FlakyInline(fail_jobs={2}, failures=99)
        ex = SupervisedExecutor(worker, workers=0,
                                policy=RetryPolicy(max_attempts=2,
                                                   base_delay_s=0.001),
                                keys_of=lambda job: [f"job-{job}"])
        results = []
        with pytest.raises(StudyExecutionError) as err:
            for result in ex.run(range(4)):
                results.append(result)
        # the healthy siblings all completed before the failure surfaced
        assert sorted(results) == [0, 2, 6]
        assert err.value.quarantined == ["job-2"]
        assert "job-2" in str(err.value)

    def test_budget_exhaustion_stops_retrying(self):
        worker = _FlakyInline(fail_jobs={0}, failures=99)
        ex = SupervisedExecutor(worker, workers=0, policy=FAST,
                                budget=RetryBudget(0),
                                keys_of=lambda job: [f"job-{job}"])
        with pytest.raises(StudyExecutionError) as err:
            list(ex.run(range(2)))
        assert err.value.quarantined == ["job-0"]
        assert err.value.budget_exhausted
        # one single failed attempt: the budget forbade any retry at all
        assert ex.summary()["retry"]["retries"] == 0

    def test_bisection_corners_the_poison_member(self):
        """A splittable job with one poison member quarantines exactly
        that member; every sibling still renders."""
        def worker(job):
            if "poison" in job:
                raise RuntimeError("poison member")
            return list(job)

        def splitter(job):
            if len(job) < 2:
                return None
            mid = len(job) // 2
            return [job[:mid], job[mid:]]

        ex = SupervisedExecutor(
            worker, workers=0,
            policy=RetryPolicy(max_attempts=2, bisect_after=1,
                               base_delay_s=0.001),
            splitter=splitter, keys_of=lambda job: list(job))
        done = []
        with pytest.raises(StudyExecutionError) as err:
            for result in ex.run([("a", "b", "poison", "c", "d")]):
                done.extend(result)
        assert sorted(done) == ["a", "b", "c", "d"]
        assert err.value.quarantined == ["poison"]
        assert ex.summary()["retry"]["bisections"] >= 2

    def test_deterministic_backoff_jitter(self):
        policy = RetryPolicy()
        first = policy.backoff_delay(3, seed=7, token="k")
        assert first == policy.backoff_delay(3, seed=7, token="k")
        assert first != policy.backoff_delay(3, seed=8, token="k")
        assert first != policy.backoff_delay(3, seed=7, token="other")
        assert first <= policy.max_delay_s * (1 + policy.jitter_fraction)

    def test_recorder_counters_mirror_summary(self):
        recorder = Recorder()
        worker = _FlakyInline(fail_jobs={1}, failures=1)
        ex = SupervisedExecutor(worker, workers=0, policy=FAST,
                                recorder=recorder)
        list(ex.run(range(3)))
        summary = ex.summary()["retry"]
        assert recorder.counters["retry.attempts"] == summary["attempts"]
        assert recorder.counters["retry.retries"] == summary["retries"]
        assert recorder.counters["retry.worker_errors"] == \
            summary["worker_errors"]


class TestPooled:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_happy_path(self, workers):
        # at 4, each later worker is forked holding the supervisor's end of
        # every earlier worker's pipe, and closes those copies
        ex = SupervisedExecutor(_double, workers=workers, policy=FAST)
        results = _no_survivor(lambda: sorted(ex.run(range(12))))
        assert results == [2 * n for n in range(12)]
        assert ex.summary()["degraded"]["pool_rebuilds"] == 0

    def test_recovers_from_worker_crash(self, tmp_path):
        """os._exit in a worker breaks the whole pool; the supervisor
        harvests survivors, rebuilds, and retries to completion."""
        marker = str(tmp_path / "crashed")
        jobs = [(n, marker if n == 3 else None) for n in range(8)]
        ex = SupervisedExecutor(_crash_once, workers=2, policy=FAST)
        results = _no_survivor(lambda: sorted(ex.run(jobs)))
        assert results == [2 * n for n in range(8)]
        summary = ex.summary()
        assert summary["retry"]["crashes"] >= 1
        assert summary["degraded"]["pool_rebuilds"] >= 1
        assert summary["retry"]["quarantined"] == []

    def test_recovers_from_hung_worker(self, tmp_path):
        """A worker sleeping past its deadline is presumed hung: its pool
        is torn down and the job retried on a fresh one, without waiting
        out the 30s sleep."""
        marker = str(tmp_path / "hung")
        jobs = [(n, marker if n == 1 else None, 30.0) for n in range(4)]
        ex = SupervisedExecutor(
            _hang_once, workers=2,
            policy=RetryPolicy(job_deadline_s=1.0, base_delay_s=0.01))
        results = _no_survivor(lambda: sorted(ex.run(jobs)))
        assert results == [2 * n for n in range(4)]
        summary = ex.summary()
        assert summary["retry"]["timeouts"] >= 1
        assert summary["degraded"]["pool_rebuilds"] >= 1

    @pytest.mark.parametrize("error", [RuntimeError, _UnpicklableError,
                                       _UnloadableError],
                             ids=["picklable", "unpicklable", "unloadable"])
    def test_worker_exception_is_an_error(self, tmp_path, error):
        """An exception raised in a pool worker fails that job alone, even
        one that cannot be pickled, or unpickled, on its way back: one
        error, one retry, no rebuild."""
        marker = str(tmp_path / "raised")
        jobs = [(n, marker if n == 2 else None, error) for n in range(6)]
        ex = SupervisedExecutor(_raise_once, workers=2, policy=FAST)
        assert sorted(ex.run(jobs)) == [2 * n for n in range(6)]
        summary = ex.summary()
        assert summary["retry"]["worker_errors"] == 1
        assert summary["retry"]["retries"] == 1
        assert summary["degraded"]["pool_rebuilds"] == 0

    def test_quarantine_reaps_the_pool(self):
        worker = _FlakyInline(fail_jobs={2}, failures=99)
        ex = SupervisedExecutor(worker, workers=2,
                                policy=RetryPolicy(max_attempts=2,
                                                   base_delay_s=0.001),
                                keys_of=lambda job: [f"job-{job}"])

        def run():
            with pytest.raises(StudyExecutionError) as err:
                list(ex.run(range(4)))
            assert err.value.quarantined == ["job-2"]
        _no_survivor(run)

    def test_closing_the_run_reaps_busy_workers(self, tmp_path):
        """A consumer that stops early closes the generator while jobs
        still sleep in the pool: they are terminated, not waited for."""
        markers = [str(tmp_path / f"m{n}") for n in range(4)]
        jobs = [(0, None, 0.0)] + [(n, markers[n], 30.0) for n in (1, 2, 3)]
        ex = SupervisedExecutor(_hang_once, workers=2, policy=FAST)

        def run():
            results = ex.run(jobs)
            assert next(results) == 0
            results.close()
        _no_survivor(run)

    def test_falls_back_inline_after_repeated_pool_death(self, tmp_path):
        # one poison job, rebuild allowance zero: the first pool death
        # pushes everything (poison included, its marker now claimed)
        # onto the inline path, which must finish the run
        marker = str(tmp_path / "m0")
        jobs = [(n, marker if n == 0 else None) for n in range(6)]
        ex = SupervisedExecutor(
            _crash_once, workers=2,
            policy=RetryPolicy(max_pool_rebuilds=0, base_delay_s=0.001,
                               max_attempts=6))
        results = _no_survivor(lambda: sorted(ex.run(jobs)))
        assert results == [2 * n for n in range(6)]
        summary = ex.summary()["degraded"]
        assert summary["inline_fallback"] is True
        assert summary["pool_rebuilds"] >= 1


def _nap(seconds):
    time.sleep(seconds)
    return seconds


class TestSupervisorGone:
    """A worker must not outlive its supervisor: once no process holds the
    supervisor's end of its pipe, it reads EOF (or its reply meets a
    broken pipe) and exits, with status 0 and no traceback."""

    @pytest.mark.parametrize("busy", [False, True], ids=["idle", "busy"])
    def test_worker_exits_quietly_when_its_pipe_closes(self, busy, capfd):
        ex = SupervisedExecutor(_nap, workers=2, policy=FAST)
        pool = ex._new_pool(2)
        try:
            for w in pool:
                if busy:
                    w.conn.send((0.2,))
                w.conn.close()
            for w in pool:
                w.process.join(5.0)
            assert [w.process.exitcode for w in pool] == [0, 0]
        finally:
            for w in pool:
                w.process.terminate()
                w.process.join()
        assert "Traceback" not in capfd.readouterr().err

    def test_workers_exit_when_their_supervisor_is_killed(self):
        """SIGKILL a supervising process mid-run: each worker pid is gone,
        or a zombie nobody reaps, within a few seconds."""
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        code = (
            "import os, sys, time\n"
            "sys.path.insert(0, %r)\n"
            "from repro.resilience import SupervisedExecutor\n"
            "def nap(seconds):\n"
            "    print(os.getpid(), flush=True)\n"
            "    time.sleep(seconds)\n"
            "for _ in SupervisedExecutor(nap, workers=2).run([0.5] * 40):\n"
            "    pass\n" % src)
        proc = subprocess.Popen([sys.executable, "-c", code],
                                stdout=subprocess.PIPE)
        workers, pending = set(), b""
        try:
            deadline = time.monotonic() + 30.0
            while len(workers) < 2:
                ready, _, _ = select.select(
                    [proc.stdout], [], [],
                    max(0.0, deadline - time.monotonic()))
                assert ready, "the workers never started a job"
                chunk = os.read(proc.stdout.fileno(), 4096)
                assert chunk, "the supervisor exited before its workers ran"
                *lines, pending = (pending + chunk).split(b"\n")
                workers.update(int(line) for line in lines)
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait()
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline \
                    and not all(map(_exited, workers)):
                time.sleep(0.05)
            assert [pid for pid in workers if not _exited(pid)] == []
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
            for pid in workers:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass


def _exited(pid: int) -> bool:
    """True once ``pid`` is gone or a zombie (state ``Z``): an orphan is
    only reaped if something adopts and waits for it."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            stat = fh.read()
    except FileNotFoundError:
        return True
    return stat.rpartition(")")[2].split()[0] == "Z"


_FAULT_KINDS = ("clean", "crash", "raise", "corrupt")

#: no quarantine under the drawn faults: a job fails once by its own fault
#: and at most once more per pool death (max_pool_rebuilds + 1 = 4)
CHAOS = RetryPolicy(max_attempts=8, base_delay_s=0.001, max_delay_s=0.005,
                    job_deadline_s=30.0)


def _faulty(job):
    """Pool worker for the randomised mix: a faulty job misbehaves the
    first time its marker is claimed and runs clean after. A crash is a
    real ``os._exit`` in a pool worker and ``SimulatedWorkerCrash`` in
    the supervising process (the inline fallback)."""
    value, kind, marker = job
    if kind != "clean" and not os.path.exists(marker):
        open(marker, "w").close()
        if kind == "crash":
            if multiprocessing.parent_process() is None:
                raise SimulatedWorkerCrash(f"injected crash for {value}")
            os._exit(5)
        if kind == "raise":
            raise RuntimeError(f"injected failure for {value}")
        return "corrupt"
    return value * 2


@given(drawn=st.lists(st.tuples(st.integers(-1000, 1000),
                                st.sampled_from(_FAULT_KINDS)),
                      min_size=1, max_size=40),
       workers=st.sampled_from([2, 3]))
def test_pooled_equals_inline_under_faults(drawn, workers):
    """Any mix of crash-once, raise-once and corrupt-once jobs yields the
    fault-free inline results, charges every fault that fired, and leaves
    no worker behind. A raise-once or corrupt-once job in flight when a
    crash takes its pool down is charged as a crash, so those two counts
    are exact only in a run without crashes."""
    with tempfile.TemporaryDirectory() as ledger:
        jobs = [(value, kind, os.path.join(ledger, f"{i}.{kind}"))
                for i, (value, kind) in enumerate(drawn)]
        ex = SupervisedExecutor(
            _faulty, workers=workers, policy=CHAOS,
            validator=lambda job, result: result == job[0] * 2)
        pooled = sorted(ex.run(jobs))
        fired = Counter(name.split(".")[1] for name in os.listdir(ledger))
    inline = SupervisedExecutor(_faulty, workers=0).run(
        [(value, "clean", None) for value, _ in drawn])
    assert pooled == sorted(inline)
    assert multiprocessing.active_children() == []

    retry = ex.summary()["retry"]
    assert retry["crashes"] >= fired["crash"]
    assert retry["worker_errors"] <= fired["raise"]
    assert retry["corrupt_returns"] <= fired["corrupt"]
    assert retry["crashes"] + retry["worker_errors"] \
        + retry["corrupt_returns"] >= sum(fired.values())
    if not fired["crash"]:
        assert retry["worker_errors"] == fired["raise"]
        assert retry["corrupt_returns"] == fired["corrupt"]
        assert ex.summary()["degraded"]["pool_rebuilds"] == 0
