"""SupervisedExecutor: the fault-tolerant worker pool of the study's
RENDER phase.

Supervision model (one loop, four recovery paths):

* **One job per idle worker + per-job deadlines.** The supervisor starts
  its worker processes itself, one duplex pipe each, and sends a job only
  to an idle worker, so each deadline times that job's own run. It waits
  on the busy workers' pipes and runs no thread. Every deadline and
  backoff instant flows through ``self._clock`` (``time.monotonic`` by
  default, injectable for tests), never ``time.time``, so a stepped wall
  clock cannot fire deadlines early. One bad job fails alone: a worker's
  exception comes back over its pipe as that job's error.
* **Retry with capped exponential backoff.** A failed job re-enters the
  queue after a seed-deterministic jittered delay (``RetryPolicy``);
  every re-submission spends the run-wide ``RetryBudget``, so a
  systematically broken workload terminates instead of retrying forever.
* **Bisection.** A *splittable* job (a batch group) that keeps failing is
  cut in half: the poison member is cornered in O(log n) splits while its
  healthy siblings render normally, instead of the whole group dying
  together.
* **Degradation.** A worker crash (EOF on its pipe, or a failed send to
  it) takes the pool down: the supervisor harvests whatever results
  arrived, charges the in-flight jobs, and starts a fresh pool. A hung
  worker (deadline overrun) gets its pool terminated the same way. Past
  ``max_pool_rebuilds`` the supervisor stops trusting pools entirely and
  renders inline in the supervising process.

Every worker is reaped before ``run`` returns, raises or is closed: an
idle one is sent the stop message, a busy one is terminated. A worker
whose supervising process is killed exits by itself: no process but the
supervisor holds the supervisor's end of a worker's pipe, so the worker
reads EOF.

Jobs that exhaust their attempts (or the budget) are *quarantined*: the
run completes everything else, then raises ``StudyExecutionError`` naming
the quarantined class keys and the budget. A fault-free run takes none
of these paths and yields exactly one result per job — bit-identical,
same-order metrics, any worker count.

``counts`` is the executor's one record of what it did, keyed by the
recorder's counter names (``retry.*``, ``degraded.*``); the study driver
publishes it into its recorder after each render step. With an enabled
recorder the executor also emits ``job.*`` / ``pool.*`` events and the
``retry.backoff_s`` histogram as they happen.
"""
from __future__ import annotations

import multiprocessing
import pickle
import time
from collections import deque
from multiprocessing.connection import wait

from ..obs import NULL_RECORDER
from .errors import SimulatedWorkerCrash, StudyExecutionError
from .policy import RetryBudget, RetryPolicy

#: failure kind -> its counter
_FAIL_COUNTERS = {
    "crash": "retry.crashes",
    "timeout": "retry.timeouts",
    "corrupt": "retry.corrupt_returns",
    "error": "retry.worker_errors",
}


class _JobState:
    __slots__ = ("job", "failures", "not_before", "token")

    def __init__(self, job, token: str):
        self.job = job
        self.failures = 0
        self.not_before = 0.0
        self.token = token


class _Worker:
    """A pool process and the supervisor's end of its pipe; ``state`` is
    the job it is running (None when idle), due at ``deadline``."""
    __slots__ = ("process", "conn", "state", "deadline")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        self.state: _JobState | None = None
        self.deadline = 0.0


def _serve(worker, conn, inherited) -> None:
    """A pool worker's loop: run ``worker`` on each ``(job,)`` received
    over ``conn`` and send back ``(True, result)`` or ``(False,
    exception)``, until the stop message ``None``.

    ``inherited`` are the supervisor's ends of this worker's pipe and of
    every earlier worker's, which the fork copied. They are closed first,
    so that once the supervisor is gone no process holds its end: the
    worker then reads EOF, or its reply meets a broken pipe, and it
    exits quietly.
    """
    for end in inherited:
        end.close()
    try:
        while (message := conn.recv()) is not None:
            try:
                reply = (True, worker(message[0]))
            except Exception as exc:
                reply = (False, exc)
            try:
                data = pickle.dumps(reply)
            except Exception as exc:
                # the result or the exception will not pickle
                data = pickle.dumps((False, pickle.PicklingError(repr(exc))))
            conn.send_bytes(data)
    except (EOFError, OSError):
        pass  # the supervisor is gone


def _receive(conn):
    """A worker's ``(ok, value)`` reply. EOF or OSError means the worker
    died; a reply that will not unpickle arrives as an error."""
    reply = conn.recv_bytes()
    try:
        return pickle.loads(reply)
    except Exception as exc:
        return False, exc


class SupervisedExecutor:
    """Runs picklable ``worker(job)`` calls to completion under the
    supervision model above. ``run`` is a generator yielding results in
    completion order (callers must not depend on ordering)."""

    def __init__(self, worker, *, workers: int = 0,
                 policy: RetryPolicy | None = None,
                 budget: RetryBudget | None = None,
                 recorder=NULL_RECORDER, seed: int = 0,
                 splitter=None, validator=None, keys_of=None,
                 sleep=time.sleep, clock=time.monotonic):
        self._worker = worker
        self.workers = max(0, workers)
        self.policy = policy or RetryPolicy()
        self.budget = budget
        self._recorder = recorder
        # the null-recorder fast path is a study-wide contract: a disabled
        # recorder sees ZERO per-job calls, so events go through this flag
        self._measuring = bool(getattr(recorder, "enabled", False))
        self._seed = seed
        self._splitter = splitter
        self._validator = validator
        self._keys_of = keys_of or (lambda job: [repr(job)])
        self._sleep = sleep
        self._clock = clock
        self._quarantined: list[str] = []
        #: what the executor did, under the recorder's counter names
        self.counts = dict.fromkeys(
            ("retry.attempts", "retry.retries", "retry.crashes",
             "retry.timeouts", "retry.worker_errors", "retry.corrupt_returns",
             "retry.bisections", "retry.quarantined",
             "degraded.pool_rebuilds", "degraded.inline_fallbacks"), 0)

    # -- public surface ------------------------------------------------------
    def run(self, jobs):
        """Yield one result per job that completes; raise
        ``StudyExecutionError`` at the end if any job was quarantined."""
        jobs = list(jobs)
        if self.budget is None:
            self.budget = RetryBudget.for_jobs(len(jobs))
        states = deque(_JobState(job, self._keys_of(job)[0]) for job in jobs)
        if self.workers > 1 and states:
            yield from self._run_pooled(states)
        else:
            yield from self._run_inline(states)
        if self._quarantined:
            raise StudyExecutionError(
                "supervised execution gave up on "
                f"{len(self._quarantined)} render class(es)",
                quarantined=self._quarantined,
                budget_spent=self.budget.spent,
                budget_limit=self.budget.limit,
                budget_exhausted=self.budget.exhausted)

    # -- shared failure handling ---------------------------------------------
    def _fail(self, state: _JobState, kind: str, states: deque) -> None:
        """One failed attempt: count it, then bisect, quarantine, or
        schedule a backed-off retry."""
        self.counts[_FAIL_COUNTERS[kind]] += 1
        if self._measuring:
            self._recorder.event("job.failed", failure=kind,
                                 key=state.token,
                                 failures=state.failures + 1)
        state.failures += 1

        if self._splitter is not None \
                and state.failures >= self.policy.bisect_after:
            halves = self._splitter(state.job)
            if halves and len(halves) > 1:
                self.counts["retry.bisections"] += 1
                if self._measuring:
                    self._recorder.event("job.bisected", key=state.token,
                                         halves=len(halves))
                for sub in reversed(halves):
                    states.appendleft(_JobState(sub, self._keys_of(sub)[0]))
                return

        if state.failures >= self.policy.max_attempts \
                or not self.budget.try_spend():
            keys = self._keys_of(state.job)
            self._quarantined.extend(keys)
            self.counts["retry.quarantined"] += len(keys)
            if self._measuring:
                self._recorder.event("job.quarantined", keys=list(keys),
                                     failures=state.failures)
            return

        delay = self.policy.backoff_delay(state.failures, self._seed,
                                          state.token)
        self.counts["retry.retries"] += 1
        if self._measuring:
            self._recorder.observe("retry.backoff_s", delay)
            self._recorder.event("job.retry", key=state.token,
                                 failures=state.failures, delay_s=delay)
        state.not_before = self._clock() + delay
        states.append(state)

    def _classify(self, exc: BaseException) -> str:
        return "crash" if isinstance(exc, SimulatedWorkerCrash) else "error"

    def _valid(self, state: _JobState, result) -> bool:
        if self._validator is None:
            return True
        try:
            return bool(self._validator(state.job, result))
        except Exception:
            return False

    def _pop_ready(self, states: deque, now: float) -> _JobState | None:
        """Next state whose backoff has elapsed (scans the queue once)."""
        for _ in range(len(states)):
            state = states.popleft()
            if state.not_before <= now:
                return state
            states.append(state)
        return None

    # -- inline execution ----------------------------------------------------
    def _run_inline(self, states: deque):
        """Render in the supervising process: the degraded path (and the
        natural one for small/unpooled runs). No deadlines — a genuine
        hang here is a genuine hang of the caller — but crashes surface
        as exceptions and go through the same retry machinery."""
        while states:
            now = self._clock()
            state = self._pop_ready(states, now)
            if state is None:
                self._sleep(max(0.0, min(s.not_before for s in states) - now))
                continue
            self.counts["retry.attempts"] += 1
            try:
                result = self._worker(state.job)
            except Exception as exc:
                self._fail(state, self._classify(exc), states)
                continue
            if not self._valid(state, result):
                self._fail(state, "corrupt", states)
                continue
            yield result

    # -- pooled execution ----------------------------------------------------
    def _new_pool(self, jobs: int) -> list[_Worker] | None:
        """Start ``min(workers, jobs)`` worker processes, one pipe each;
        None if one fails to start. They start in the default context
        (fork on Linux), which is safe because the supervisor runs no
        thread."""
        pool: list[_Worker] = []
        try:
            for _ in range(min(self.workers, jobs)):
                conn, child = multiprocessing.Pipe()
                inherited = [w.conn for w in pool] + [conn]
                process = multiprocessing.Process(
                    target=_serve, args=(self._worker, child, inherited))
                try:
                    process.start()
                finally:
                    # the worker holds the only other copy of its end, so
                    # its death reads as EOF on ``conn``; it closes its
                    # copies of ``inherited``, so this process's death
                    # reads as EOF in the worker
                    child.close()
                pool.append(_Worker(process, conn))
        except Exception:
            self._stop_pool(pool)
            return None
        return pool

    def _stop_pool(self, pool: list[_Worker]) -> None:
        """Reap every worker: an idle one gets the stop message, a busy or
        dead one is terminated, so none outlives the call. (Closing a
        worker's pipe would also end it, but only once its job is done.)"""
        for w in pool:
            if w.state is None:
                try:
                    w.conn.send(None)
                    continue
                except OSError:
                    pass
            w.process.terminate()
        for w in pool:
            w.process.join()
            w.conn.close()

    def _rebuild_pool(self, pool: list[_Worker],
                      states: deque) -> list[_Worker] | None:
        """Tear down a broken/wedged pool; a fresh one, or None once the
        rebuild allowance is spent (inline fallback)."""
        self._stop_pool(pool)
        self.counts["degraded.pool_rebuilds"] += 1
        rebuilds = self.counts["degraded.pool_rebuilds"]
        if self._measuring:
            self._recorder.event("pool.rebuild", rebuilds=rebuilds)
        if rebuilds > self.policy.max_pool_rebuilds:
            return None
        return self._new_pool(len(states))

    def _dispatch(self, pool: list[_Worker], states: deque) -> bool:
        """Send one ready job to each idle worker: no send can then block
        on a busy worker, and each deadline times the job's own run. True
        if a send found its worker dead."""
        now = self._clock()
        for w in pool:
            if w.state is not None:
                continue
            state = self._pop_ready(states, now)
            if state is None:
                break
            self.counts["retry.attempts"] += 1
            try:
                w.conn.send((state.job,))
            except OSError:  # the worker has died
                self._fail(state, "crash", states)
                return True
            except Exception:  # the job will not pickle
                self._fail(state, "error", states)
                continue
            w.state = state
            w.deadline = now + self.policy.job_deadline_s
        return False

    def _run_pooled(self, states: deque):
        pool = self._new_pool(len(states))
        try:
            while pool is not None:
                broken = self._dispatch(pool, states)
                busy = {w.conn: w for w in pool if w.state is not None}
                if not (busy or broken):
                    if not states:
                        return
                    # everything queued is backing off — wait it out
                    self._sleep(max(0.0, min(s.not_before for s in states)
                                    - self._clock()))
                    continue

                if not broken:
                    # wake at the earliest interesting instant: a job
                    # deadline or a backed-off job becoming ready for an
                    # idle worker
                    wake_at = min(w.deadline for w in busy.values())
                    if states and len(busy) < len(pool):
                        wake_at = min(wake_at,
                                      min(s.not_before for s in states))
                    timeout = max(0.0, wake_at - self._clock())
                    for conn in wait(list(busy), timeout):
                        w = busy.pop(conn)
                        state, w.state = w.state, None
                        try:
                            ok, value = _receive(conn)
                        except (EOFError, OSError):  # the worker has died
                            self._fail(state, "crash", states)
                            broken = True
                            continue
                        if not ok:
                            kind = self._classify(value)
                            broken = broken or kind == "crash"
                            self._fail(state, kind, states)
                        elif not self._valid(state, value):
                            self._fail(state, "corrupt", states)
                        else:
                            yield value

                if broken:
                    # the pool dies with the crashed worker: charge the jobs
                    # still in flight and start a fresh pool
                    for w in busy.values():
                        self._fail(w.state, "crash", states)
                    pool = self._rebuild_pool(pool, states)
                    continue

                now = self._clock()
                if any(now >= w.deadline for w in busy.values()):
                    # a worker blew its deadline: presume it hung. A running
                    # job cannot be cancelled, so the whole pool goes; the
                    # overdue jobs are charged, innocent in-flight siblings
                    # are requeued free of charge.
                    for w in busy.values():
                        if now >= w.deadline:
                            self._fail(w.state, "timeout", states)
                        else:
                            states.append(w.state)
                    pool = self._rebuild_pool(pool, states)

            # pool death past the rebuild allowance: drain what is left
            # inline, in this process
            self.counts["degraded.inline_fallbacks"] += 1
            if self._measuring:
                self._recorder.event("pool.inline_fallback")
            yield from self._run_inline(states)
        finally:
            if pool is not None:
                self._stop_pool(pool)
