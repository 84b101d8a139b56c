"""repro.analysis — fingerprint collation + entropy analysis (paper §4).

Turns a rendered ``StudyDataset`` into the paper's measurement results:

  collation   the fingerprint graph (nodes = distinct eFPs, edges =
              co-observation within one user's series) collapsed into
              stable collated fingerprint ids by array label
              propagation.
  entropy     Shannon/normalized entropy, anonymity-set distributions
              and raw-vs-collated stability, per vector and combined.
  report      a deterministic, schema-versioned JSON report; validated
              by ``python -m repro.obs.report --check`` and rendered as
              the paper-style tables.

CLI: ``python -m repro.analysis dataset.json --out report.json``.
"""

from .collation import (VectorCollation, collate,  # noqa: F401
                        collate_vector, combined_user_ids, component_roots,
                        series_edges)
from .entropy import (distribution, normalized_entropy,  # noqa: F401
                      shannon_entropy, stability, vector_metrics)
from .report import (ANALYSIS_FORMAT, ANALYSIS_KIND,  # noqa: F401
                     build_analysis_report, dumps_analysis_report,
                     render_analysis_report, validate_analysis_report)
from .shards import (SHARD_REPORT_FORMAT, SHARD_REPORT_KIND,  # noqa: F401
                     build_shard_report, dumps_shard_or_merged,
                     merge_shard_reports, render_shard_report,
                     validate_shard_report)
from .tables import (MATCH_SPLITS, TABLES_FORMAT, TABLES_KIND,  # noqa: F401
                     build_tables_report, classify_vectors,
                     dumps_tables_report, match_score,
                     render_tables_report, validate_tables_report)

__all__ = [
    "VectorCollation", "collate", "collate_vector", "combined_user_ids",
    "component_roots", "series_edges",
    "distribution", "normalized_entropy", "shannon_entropy", "stability",
    "vector_metrics",
    "ANALYSIS_FORMAT", "ANALYSIS_KIND", "build_analysis_report",
    "dumps_analysis_report", "render_analysis_report",
    "validate_analysis_report",
    "SHARD_REPORT_FORMAT", "SHARD_REPORT_KIND", "build_shard_report",
    "dumps_shard_or_merged", "merge_shard_reports", "render_shard_report",
    "validate_shard_report",
    "MATCH_SPLITS", "TABLES_FORMAT", "TABLES_KIND", "build_tables_report",
    "classify_vectors", "dumps_tables_report", "match_score",
    "render_tables_report", "validate_tables_report",
]
