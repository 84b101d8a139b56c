"""repro — reproduction of "Your Speaker or My Snooper?" (IMC 2022).

Top-level convenience surface; the layers live in:

  repro.webaudio    the offline Web Audio rendering engine
  repro.platform    platform stacks, math/FFT variants, jitter model
  repro.vectors     fingerprinting vectors (pure render functions)
  repro.population  sampler, equivalence-class render cache, study runner
  repro.analysis    fingerprint-graph collation + entropy/anonymity
                    analysis (the paper's §4 measurement layer)
  repro.obs         observability: span tracer, metrics, node profiler,
                    run reports (zero-dependency, off by default)
  repro.resilience  fault-tolerant supervised execution: retry/backoff,
                    batch bisection, fault injection
"""

from .analysis import build_analysis_report, collate  # noqa: F401
from .analysis.shards import (build_shard_report,  # noqa: F401
                              merge_shard_reports)
from .obs import NullRecorder, Recorder  # noqa: F401
from .population import (RenderCache, ShardIntegrityError,  # noqa: F401
                         StudyDataset, run_study, run_study_sharded)
from .resilience import (FaultPlan, RetryBudget, RetryPolicy,  # noqa: F401
                         StudyExecutionError)
from .webaudio import OfflineAudioContext  # noqa: F401

__version__ = "0.1.0"

__all__ = ["run_study", "run_study_sharded", "RenderCache", "StudyDataset",
           "OfflineAudioContext",
           "collate", "build_analysis_report",
           "build_shard_report", "merge_shard_reports",
           "ShardIntegrityError",
           "Recorder", "NullRecorder",
           "StudyExecutionError", "RetryPolicy", "RetryBudget", "FaultPlan",
           "__version__"]
