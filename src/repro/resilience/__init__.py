"""repro.resilience — fault-tolerant execution for the study pipeline.

Three cooperating pieces:

  executor    ``SupervisedExecutor``: worker processes it starts and
              drives over one pipe each, one job per idle worker with
              per-job deadlines, retry with capped exponential backoff +
              deterministic jitter, batch bisection to corner poison
              classes, pool rebuild on crash/hang, inline fallback on
              repeated pool death, quarantine + ``StudyExecutionError``
              instead of a dead pool or a hang, and every worker reaped
              before ``run`` ends.
  policy      ``RetryPolicy`` (the knobs) and ``RetryBudget`` (the
              run-wide cap that bounds total retry work).
  faults      the seed-deterministic, env-gated (``$REPRO_FAULTS``)
              fault-injection plan — worker crash, hang, corrupted
              return, render delay — that chaos tests and the chaos
              benchmark drive recovery paths with; render workers read
              it once per job (``render_faults``).

The invariant the whole package defends: whenever recovery succeeds, the
final dataset is bit-identical to a fault-free run's. Surviving a killed
process is the sharded driver's job: its committed shards are what a
rerun resumes (``repro.population.shards``).
"""

from .errors import SimulatedWorkerCrash, StudyExecutionError  # noqa: F401
from .executor import SupervisedExecutor  # noqa: F401
from .faults import CORRUPT_EFP, Fault, FaultPlan, render_faults  # noqa: F401
from .policy import RetryBudget, RetryPolicy  # noqa: F401

__all__ = [
    "SupervisedExecutor", "RetryPolicy", "RetryBudget",
    "StudyExecutionError", "SimulatedWorkerCrash",
    "Fault", "FaultPlan", "CORRUPT_EFP", "render_faults",
]
