"""``python -m repro.analysis`` — dataset in, metrics report out.

Three modes, one deterministic contract:

  default   consume a ``StudyDataset`` JSON (as written by
            ``StudyDataset.save``, validated on load), collate every
            vector, and emit the analysis report.
  --tables  consume the same dataset and emit the paper's Tables 2-5
            comparison report.
  --merge   consume shard reports (``shard_report_*.json``, written by
            ``run_study_sharded``) covering a full partition of the
            study and emit the merged analysis report — byte-identical
            to what the default mode produces from the monolithic
            dataset, in any merge order.

Every built report passes its own schema check before it is written.
Output goes to ``--out`` via the crash-safe atomic writer, or to stdout.
The same inputs always produce byte-identical report files.
``python -m repro.obs.report`` checks (``--check``) and renders every
report kind this CLI writes.

``--timings`` runs the pipeline under a live ``repro.obs`` recorder and
prints phase spans (load/collate/entropy/combine) and collation counters
to stderr — timings never enter the report itself, which must stay a
pure function of its inputs.
"""
from __future__ import annotations

import argparse
import json
import sys

from ..io import atomic_write_text
from ..obs import NULL_RECORDER, Recorder
from ..population.dataset import StudyDataset
from .report import (build_analysis_report, dumps_analysis_report,
                     validate_analysis_report)


def _print_timings(recorder: Recorder) -> None:
    for span in recorder.spans:
        attrs = span.get("attrs", {})
        label = span["name"] + (
            f"[{attrs['vector']}]" if "vector" in attrs else "")
        print(f"  span {label:<24} {span['duration_s'] * 1e3:9.3f} ms",
              file=sys.stderr)
    for name, value in sorted(recorder.counters.items()):
        print(f"  counter {name:<21} {value:g}", file=sys.stderr)


def _emit(args, report: dict, validate) -> int:
    """Self-check a built report against its own schema, then write it."""
    problems = validate(report)
    if problems:
        print("error: built report failed its own schema check:",
              file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 2
    text = dumps_analysis_report(report)
    if args.out:
        atomic_write_text(args.out, text)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def _run_merge_mode(args, recorder) -> int:
    from .shards import merge_shard_reports
    reports = []
    for path in args.paths:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                reports.append(json.load(fh))
        except FileNotFoundError:
            print(f"error: no shard report at {path}", file=sys.stderr)
            return 2
        except OSError as exc:  # a directory, no permission
            print(f"error: cannot read {path}: {exc.strerror}",
                  file=sys.stderr)
            return 2
        except ValueError as exc:  # not JSON, not UTF-8
            print(f"error: {path} is not valid JSON: {exc}", file=sys.stderr)
            return 2
    try:
        with recorder.span("merge"):
            merged = merge_shard_reports(reports)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _emit(args, merged, validate_analysis_report)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Collate fingerprint data and emit the deterministic "
                    "entropy/anonymity analysis report (monolithic "
                    "dataset or merged shard reports).")
    parser.add_argument("paths", nargs="+",
                        help="a StudyDataset JSON (default, --tables) or "
                             "shard report JSONs (--merge)")
    parser.add_argument("--merge", action="store_true",
                        help="merge shard reports covering the full study "
                             "into the monolithic analysis report")
    parser.add_argument("--tables", action="store_true",
                        help="emit the paper Tables 2-5 comparison report "
                             "(audio vs comparator diversity, additive "
                             "value, match scores, math-lib attribution)")
    parser.add_argument("--out", help="write the report here (atomic write); "
                                      "default: print JSON to stdout")
    parser.add_argument("--timings", action="store_true",
                        help="print repro.obs spans/counters to stderr")
    args = parser.parse_args(argv)
    if args.tables and args.merge:
        parser.error("--tables works on a monolithic dataset only")

    recorder = Recorder() if args.timings else NULL_RECORDER
    if args.merge:
        code = _run_merge_mode(args, recorder)
    else:
        code = _run_dataset_mode(args, parser, recorder)
    if args.timings and code == 0:
        _print_timings(recorder)
    return code


def _run_dataset_mode(args, parser, recorder) -> int:
    if len(args.paths) != 1:
        parser.error("exactly one dataset path expected "
                     "(use --merge for multiple shard reports)")
    path = args.paths[0]
    try:
        with recorder.span("load"):
            dataset = StudyDataset.load(path)
    except FileNotFoundError:
        print(f"error: no dataset at {path}", file=sys.stderr)
        return 2
    except OSError as exc:  # a directory, no permission
        print(f"error: cannot read {path}: {exc.strerror}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: {path} is not valid JSON: {exc}",
              file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"error: {path} is not a valid StudyDataset: {exc}",
              file=sys.stderr)
        return 2

    if args.tables:
        return _run_tables_mode(args, dataset, recorder)
    report = build_analysis_report(dataset, recorder=recorder)
    return _emit(args, report, validate_analysis_report)


def _run_tables_mode(args, dataset, recorder) -> int:
    from ..vectors.registry import UnknownVectorError
    from .tables import build_tables_report, validate_tables_report
    try:
        report = build_tables_report(dataset, recorder=recorder)
    except UnknownVectorError as exc:
        # a dataset naming a vector this build has never heard of is a
        # user-facing input problem, not a crash
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _emit(args, report, validate_tables_report)


if __name__ == "__main__":  # pragma: no cover — exercised via CLI tests
    sys.exit(main())
