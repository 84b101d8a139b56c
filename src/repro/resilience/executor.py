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
idle one is sent the stop message, a busy one is terminated.

Jobs that exhaust their attempts (or the budget) are *quarantined*: the
run completes everything else, then raises ``StudyExecutionError`` naming
the quarantined class keys. A fault-free run takes none of these paths
and yields exactly one result per job — bit-identical, same-order
metrics, any worker count.
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

#: failure kind -> recorder counter
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


def _serve(worker, conn) -> None:
    """A pool worker's loop: run ``worker`` on each ``(job,)`` received
    over ``conn`` and send back ``(True, result)`` or ``(False,
    exception)``, until the stop message ``None``."""
    while (message := conn.recv()) is not None:
        try:
            reply = (True, worker(message[0]))
        except Exception as exc:
            reply = (False, exc)
        try:
            conn.send(reply)
        except Exception as exc:
            # the result or the exception will not pickle; pickling comes
            # before the write, so nothing was sent
            conn.send((False, pickle.PicklingError(repr(exc))))


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
        # recorder sees ZERO per-job calls, so supervision metrics go
        # through this flag (the plain-dict summary() is always kept)
        self._measuring = bool(getattr(recorder, "enabled", False))
        self._seed = seed
        self._splitter = splitter
        self._validator = validator
        self._keys_of = keys_of or (lambda job: [repr(job)])
        self._sleep = sleep
        self._clock = clock
        self._quarantined: list[str] = []
        self._counts = {"attempts": 0, "retries": 0, "timeouts": 0,
                        "crashes": 0, "worker_errors": 0,
                        "corrupt_returns": 0, "bisections": 0,
                        "pool_rebuilds": 0}
        self._inline_fallback = False

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

    @property
    def retries(self) -> int:
        """Retries so far — read by the live progress heartbeat."""
        return self._counts["retries"]

    def summary(self) -> dict:
        """Report-shaped snapshot: the ``retry`` and ``degraded`` sections
        of the run report (see ``repro.obs.report``)."""
        c = self._counts
        return {
            "retry": {
                "attempts": c["attempts"], "retries": c["retries"],
                "timeouts": c["timeouts"], "crashes": c["crashes"],
                "worker_errors": c["worker_errors"],
                "corrupt_returns": c["corrupt_returns"],
                "bisections": c["bisections"],
                "quarantined": sorted(self._quarantined),
                "budget": {
                    "limit": self.budget.limit if self.budget else 0,
                    "spent": self.budget.spent if self.budget else 0,
                    "exhausted": bool(self.budget and self.budget.exhausted),
                },
            },
            "degraded": {
                "pool_rebuilds": c["pool_rebuilds"],
                "inline_fallback": self._inline_fallback,
            },
        }

    # -- shared failure handling ---------------------------------------------
    def _record_attempt(self) -> None:
        self._counts["attempts"] += 1
        if self._measuring:
            self._recorder.count("retry.attempts")

    def _fail(self, state: _JobState, kind: str, states: deque) -> None:
        """One failed attempt: count it, then bisect, quarantine, or
        schedule a backed-off retry."""
        counter_key = {"crash": "crashes", "timeout": "timeouts",
                       "corrupt": "corrupt_returns",
                       "error": "worker_errors"}[kind]
        self._counts[counter_key] += 1
        if self._measuring:
            self._recorder.count(_FAIL_COUNTERS[kind])
            self._recorder.event("job.failed", failure=kind,
                                 key=state.token,
                                 failures=state.failures + 1)
        state.failures += 1

        if self._splitter is not None \
                and state.failures >= self.policy.bisect_after:
            halves = self._splitter(state.job)
            if halves and len(halves) > 1:
                self._counts["bisections"] += 1
                if self._measuring:
                    self._recorder.count("retry.bisections")
                    self._recorder.event("job.bisected", key=state.token,
                                         halves=len(halves))
                for sub in reversed(halves):
                    states.appendleft(_JobState(sub, self._keys_of(sub)[0]))
                return

        if state.failures >= self.policy.max_attempts \
                or not self.budget.try_spend():
            keys = self._keys_of(state.job)
            self._quarantined.extend(keys)
            if self._measuring:
                self._recorder.count("retry.quarantined", len(keys))
                self._recorder.event("job.quarantined", keys=list(keys),
                                     failures=state.failures)
            return

        delay = self.policy.backoff_delay(state.failures, self._seed,
                                          state.token)
        self._counts["retries"] += 1
        if self._measuring:
            self._recorder.count("retry.retries")
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
            self._record_attempt()
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
                process = multiprocessing.Process(
                    target=_serve, args=(self._worker, child))
                try:
                    process.start()
                finally:
                    # the worker holds the only other copy of its end, so
                    # its death reads as EOF on ``conn``
                    child.close()
                pool.append(_Worker(process, conn))
        except Exception:
            self._stop_pool(pool)
            return None
        return pool

    def _stop_pool(self, pool: list[_Worker]) -> None:
        """Reap every worker: an idle one gets the stop message, a busy or
        dead one is terminated. Closing a pipe would not stop its worker:
        every worker forked after it holds a copy of the parent's end."""
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
        self._counts["pool_rebuilds"] += 1
        if self._measuring:
            self._recorder.count("degraded.pool_rebuilds")
            self._recorder.event("pool.rebuild",
                                 rebuilds=self._counts["pool_rebuilds"])
        if self._counts["pool_rebuilds"] > self.policy.max_pool_rebuilds:
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
            self._record_attempt()
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
            if not self._inline_fallback:
                self._inline_fallback = True
                if self._measuring:
                    self._recorder.count("degraded.inline_fallbacks")
                    self._recorder.event("pool.inline_fallback")
            yield from self._run_inline(states)
        finally:
            if pool is not None:
                self._stop_pool(pool)
