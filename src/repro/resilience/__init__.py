"""repro.resilience — fault-tolerant execution for the study pipeline.

Four cooperating pieces:

  executor    ``SupervisedExecutor``: individual job submission with
              per-job deadlines, retry with capped exponential backoff +
              deterministic jitter, batch bisection to corner poison
              classes, pool rebuild on crash/hang, inline fallback on
              repeated pool death, quarantine + ``StudyExecutionError``
              instead of ``BrokenProcessPool`` or a hang.
  policy      ``RetryPolicy`` (the knobs) and ``RetryBudget`` (the
              run-wide cap that bounds total retry work).
  checkpoint  crash-safe progress snapshots keyed by render-class key,
              resumed by ``run_study(checkpoint_path=...)``.
  faults      the seed-deterministic, env-gated (``$REPRO_FAULTS``)
              fault-injection plan — worker crash, hang, corrupted
              return, render delay, torn checkpoint write — that chaos
              tests and the chaos benchmark drive recovery paths with;
              render workers read it once per job (``render_faults``).

The invariant the whole package defends: whenever recovery succeeds, the
final dataset is bit-identical to a fault-free run's.
"""

from .checkpoint import (CHECKPOINT_FORMAT, CHECKPOINT_KIND,  # noqa: F401
                         load_checkpoint, study_fingerprint, write_checkpoint)
from .errors import SimulatedWorkerCrash, StudyExecutionError  # noqa: F401
from .executor import SupervisedExecutor  # noqa: F401
from .faults import CORRUPT_EFP, Fault, FaultPlan, render_faults  # noqa: F401
from .policy import RetryBudget, RetryPolicy  # noqa: F401

__all__ = [
    "SupervisedExecutor", "RetryPolicy", "RetryBudget",
    "StudyExecutionError", "SimulatedWorkerCrash",
    "Fault", "FaultPlan", "CORRUPT_EFP", "render_faults",
    "load_checkpoint", "write_checkpoint", "study_fingerprint",
    "CHECKPOINT_KIND", "CHECKPOINT_FORMAT",
]
