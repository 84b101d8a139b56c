"""Chaos coverage for the supervised study: injected worker crashes,
hangs, and corrupted returns must be recovered bit-identically at any
worker count, surface in the run report's ``retry.*`` / ``degraded.*``
counters (each render step's supervisor counts, published once), and —
when unrecoverable — turn into StudyExecutionError naming the
quarantined classes instead of a hang or a dead worker pool."""
import json

import pytest

import repro.population.study as study_mod
from repro import (FaultPlan, Recorder, RenderCache, StudyExecutionError,
                   run_study, run_study_sharded)
from repro.obs import validate_report
from repro.resilience import CORRUPT_EFP, Fault, RetryPolicy
from repro.resilience.faults import ENV_VAR, render_faults

STUDY = dict(user_count=6, iterations=4, vectors=("dc", "fft", "hybrid"),
             seed=11)

#: fast supervision knobs for chaos runs
POLICY = RetryPolicy(base_delay_s=0.005, max_delay_s=0.05,
                     job_deadline_s=30.0)


@pytest.fixture(autouse=True)
def _no_leaked_fault_plan(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)


@pytest.fixture(scope="module")
def clean():
    """The fault-free reference: dataset bytes + the class keys it
    rendered (computed with the fault env guaranteed unset)."""
    mp = pytest.MonkeyPatch()
    mp.delenv(ENV_VAR, raising=False)
    try:
        cache = RenderCache()
        dataset = run_study(workers=0, cache=cache, **STUDY)
    finally:
        mp.undo()
    return dataset, sorted(cache._store)


def _install(monkeypatch, tmp_path, faults, seed=99):
    plan = FaultPlan(seed=seed, faults=tuple(faults))
    path = plan.save(str(tmp_path / "plan.json"))
    monkeypatch.setenv(ENV_VAR, path)
    return plan


def _supervisors(monkeypatch) -> list:
    """Every executor the study's render steps build, in build order."""
    built = []
    executor = study_mod.SupervisedExecutor

    def spy(*args, **kwargs):
        built.append(executor(*args, **kwargs))
        return built[-1]
    monkeypatch.setattr(study_mod, "SupervisedExecutor", spy)
    return built


def _summed_counts(supervisors) -> dict:
    return {name: sum(ex.counts[name] for ex in supervisors)
            for name in supervisors[0].counts}


def _dataset_bytes(dataset, tmp_path, name):
    path = tmp_path / name
    dataset.save(str(path))
    return path.read_bytes()


class TestRecoveryDeterminism:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_crash_and_corrupt_recovery_is_byte_identical(
            self, clean, monkeypatch, tmp_path, workers):
        """The acceptance invariant: with a worker crash and a corrupted
        return injected (once each, on real class keys), the recovered
        dataset's JSON is byte-identical to the fault-free run's — at
        workers 1, 2 and 4."""
        clean_dataset, keys = clean
        _install(monkeypatch, tmp_path, [
            Fault(kind="crash", keys=(keys[0],), times=1),
            Fault(kind="corrupt", keys=(keys[-1],), times=1),
        ])
        recorder = Recorder()
        dataset = run_study(workers=workers, recorder=recorder,
                            retry_policy=POLICY, **STUDY)
        assert _dataset_bytes(dataset, tmp_path, "chaos.json") == \
            _dataset_bytes(clean_dataset, tmp_path, "clean.json")
        # the faults really fired and were really recovered
        assert recorder.counters["retry.crashes"] >= 1
        if workers == 1:
            # inline execution charges the corrupted return deterministically;
            # in pooled runs the crash may break the pool under the job that
            # claimed the corrupt fault, charging it as a crash instead
            assert recorder.counters["retry.corrupt_returns"] == 1
        assert recorder.counters.get("retry.quarantined", 0) == 0
        assert CORRUPT_EFP not in {
            efp for per_user in dataset.series.values()
            for series in per_user.values() for efp in series}

    def test_hang_recovery_pooled(self, clean, monkeypatch, tmp_path):
        """A render sleeping past the supervisor's deadline: the pool is
        torn down, the job retried, the dataset unchanged."""
        clean_dataset, keys = clean
        _install(monkeypatch, tmp_path, [
            Fault(kind="hang", keys=(keys[2],), seconds=30.0, times=1),
        ])
        recorder = Recorder()
        dataset = run_study(
            workers=2, recorder=recorder,
            retry_policy=RetryPolicy(job_deadline_s=1.5, base_delay_s=0.005),
            **STUDY)
        assert dataset == clean_dataset
        assert recorder.counters["retry.timeouts"] >= 1
        assert recorder.counters["degraded.pool_rebuilds"] >= 1

    def test_corrupt_recovery_inline(self, clean, monkeypatch, tmp_path):
        clean_dataset, keys = clean
        _install(monkeypatch, tmp_path, [
            Fault(kind="corrupt", keys=(keys[1],), times=1),
        ])
        recorder = Recorder()
        dataset = run_study(workers=0, recorder=recorder,
                            retry_policy=POLICY, **STUDY)
        assert dataset == clean_dataset
        assert recorder.counters["retry.corrupt_returns"] == 1


class TestCacheOffDuplicateRows:
    """With the cache off every grid item is a row, so a job repeats a
    class key once per iteration that took it; ``render_batch`` hands
    every repeat the same eFP, and a corrupt fault poisons one row."""

    @pytest.fixture(scope="class")
    def cold(self):
        mp = pytest.MonkeyPatch()
        mp.delenv(ENV_VAR, raising=False)
        try:
            return run_study(workers=0, cache=RenderCache(disabled=True),
                             **STUDY)
        finally:
            mp.undo()

    @pytest.mark.parametrize("workers", [0, 2])
    def test_one_corrupt_duplicate_is_rejected_and_recovered(
            self, clean, cold, monkeypatch, tmp_path, workers):
        _, keys = clean
        # dc ignores the jitter path: its key repeats every iteration of
        # every user on its stack
        poison = next(key for key in keys if key.startswith("dc|"))
        _install(monkeypatch, tmp_path, [
            Fault(kind="corrupt", keys=(poison,), times=1),
        ])
        fired = []
        if workers == 0:
            def spy(job_keys):
                rows = render_faults(job_keys)
                fired.append((job_keys.count(poison), rows))
                return rows
            monkeypatch.setattr(study_mod, "render_faults", spy)
        recorder = Recorder()
        dataset = run_study(workers=workers, recorder=recorder,
                            cache=RenderCache(disabled=True),
                            retry_policy=POLICY, **STUDY)
        assert _dataset_bytes(dataset, tmp_path, "chaos.json") == \
            _dataset_bytes(cold, tmp_path, "cold.json")
        assert recorder.counters["retry.corrupt_returns"] == 1
        assert recorder.counters.get("retry.quarantined", 0) == 0
        if workers == 0:
            # the poisoned job held several rows of the key; one fired
            poisoned = [(count, rows) for count, rows in fired if rows]
            assert len(poisoned) == 1
            count, rows = poisoned[0]
            assert count >= STUDY["iterations"] and len(rows) == 1


class TestUnrecoverable:
    def test_permanent_poison_is_quarantined_with_structured_error(
            self, clean, monkeypatch, tmp_path):
        """A class that corrupts its return on EVERY attempt: bisection
        corners it, then StudyExecutionError names exactly that class."""
        _, keys = clean
        poison = keys[3]
        _install(monkeypatch, tmp_path, [
            Fault(kind="corrupt", keys=(poison,), times=None),
        ])
        with pytest.raises(StudyExecutionError) as err:
            run_study(workers=0,
                      retry_policy=RetryPolicy(max_attempts=2, bisect_after=1,
                                               base_delay_s=0.005),
                      **STUDY)
        assert err.value.quarantined == [poison]
        assert poison in str(err.value)

    def test_quarantine_still_publishes_the_counts(self, clean, monkeypatch,
                                                   tmp_path):
        """The render step publishes its supervisor's counts in a
        ``finally``: a step that quarantines and raises still leaves every
        count, and its ``pool.jobs``, in the recorder. Inline, each job,
        bisected half and retry is one attempt."""
        _, keys = clean
        _install(monkeypatch, tmp_path, [
            Fault(kind="corrupt", keys=(keys[3],), times=None),
        ])
        recorder = Recorder()
        with pytest.raises(StudyExecutionError):
            run_study(workers=0, recorder=recorder,
                      retry_policy=RetryPolicy(max_attempts=2, bisect_after=1,
                                               base_delay_s=0.005),
                      **STUDY)
        counters = recorder.counters
        assert counters["retry.quarantined"] == 1
        assert counters["retry.attempts"] > 0
        assert counters["retry.attempts"] == counters["pool.jobs"] \
            + counters["retry.retries"] + 2 * counters["retry.bisections"]

    def test_budget_exhaustion_raises_not_hangs(self, clean, monkeypatch,
                                                tmp_path):
        _, keys = clean
        _install(monkeypatch, tmp_path, [
            Fault(kind="corrupt", keys=(keys[0],), times=None),
        ])
        with pytest.raises(StudyExecutionError) as err:
            run_study(workers=0, retry_policy=POLICY, retry_budget=0, **STUDY)
        assert err.value.budget_exhausted
        assert keys[0] in err.value.quarantined


class TestChaosReport:
    def test_chaos_report_counts_survive_schema_check(self, clean,
                                                      monkeypatch, tmp_path):
        _, keys = clean
        _install(monkeypatch, tmp_path, [
            Fault(kind="crash", keys=(keys[0],), times=1),
        ])
        report_path = tmp_path / "chaos-report.json"
        run_study(workers=2, report_path=str(report_path),
                  retry_policy=POLICY, **STUDY)
        report = json.loads(report_path.read_text())
        assert validate_report(report) == []
        counters = report["counters"]
        assert counters["retry.crashes"] >= 1
        assert counters["retry.retries"] >= 1
        assert counters["degraded.pool_rebuilds"] >= 1

    def test_fault_free_report_counts_are_quiet(self, tmp_path):
        """Every job is one attempt; supervision shows only as counters,
        and the pool section holds the pool's size and utilization."""
        report_path = tmp_path / "report.json"
        run_study(user_count=3, iterations=2, vectors=("dc", "fft"), seed=5,
                  workers=0, report_path=str(report_path))
        report = json.loads(report_path.read_text())
        assert validate_report(report) == []
        counters = report["counters"]
        assert counters["retry.attempts"] == counters["pool.jobs"] > 0
        assert {name: value for name, value in counters.items()
                if name.startswith(("retry.", "degraded."))
                and name != "retry.attempts"} == dict.fromkeys(
            ("retry.retries", "retry.crashes", "retry.timeouts",
             "retry.worker_errors", "retry.corrupt_returns",
             "retry.bisections", "retry.quarantined",
             "degraded.pool_rebuilds", "degraded.inline_fallbacks"), 0)
        assert not {"retry", "degraded", "phases", "checkpoint"} & set(report)
        assert set(report["pool"]) == {"workers", "utilization"}


class TestCountsPublished:
    """A run's ``retry.*`` / ``degraded.*`` counters are its render steps'
    supervisor counts, summed: one record per fact."""

    def test_pooled_study_counters_are_its_supervisor_counts(
            self, clean, monkeypatch, tmp_path):
        _, keys = clean
        _install(monkeypatch, tmp_path, [
            Fault(kind="crash", keys=(keys[0],), times=1),
        ])
        supervisors = _supervisors(monkeypatch)
        recorder = Recorder()
        run_study(workers=2, recorder=recorder, retry_policy=POLICY, **STUDY)
        assert len(supervisors) == 1
        counts = _summed_counts(supervisors)
        assert counts["retry.crashes"] >= 1
        assert {name: recorder.counters[name] for name in counts} == counts

    def test_sharded_study_counters_sum_over_its_shards(
            self, clean, monkeypatch, tmp_path):
        """The crashing class renders in the one shard that first needs
        it (the shards share one cache); the counters add every shard's
        supervisor."""
        _, keys = clean
        _install(monkeypatch, tmp_path, [
            Fault(kind="crash", keys=(keys[0],), times=1),
        ])
        supervisors = _supervisors(monkeypatch)
        recorder = Recorder()
        run_study_sharded(STUDY["user_count"], 2, str(tmp_path / "shards"),
                          iterations=STUDY["iterations"],
                          vectors=STUDY["vectors"], seed=STUDY["seed"],
                          workers=2, recorder=recorder, retry_policy=POLICY)
        assert len(supervisors) == 3
        assert [ex.counts["retry.crashes"] > 0
                for ex in supervisors].count(True) == 1
        counts = _summed_counts(supervisors)
        assert {name: recorder.counters[name] for name in counts} == counts


class TestStudyInputValidation:
    """Satellite: run_study must reject bad user_count/workers up front."""

    @pytest.mark.parametrize("user_count", [0, -3, 2.5, True])
    def test_rejects_bad_user_count(self, user_count):
        with pytest.raises(ValueError, match="user_count"):
            run_study(user_count=user_count, iterations=1, vectors=("dc",))

    def test_rejects_negative_workers(self):
        with pytest.raises(ValueError, match="workers"):
            run_study(user_count=1, iterations=1, vectors=("dc",), workers=-1)
