"""Sharded, streaming studies: million-user scale under bounded memory.

``run_study`` materializes the whole grid and dataset in RAM — fine at
the paper's 2,093 users, not at the north star's millions.
``run_study_sharded`` partitions the population into deterministic,
independently seeded shards and runs them one at a time on the driver
core in ``repro.population.study``: the same front door (validation,
telemetry lifecycle), the same per-range step per shard (cache probe,
supervised batched render — retry, bisection and chaos hooks included),
the same assembler and the same run-report writer. Each shard's per-user
series then streams to disk instead of staying in memory, next to its
analysis:

  shard_<start>_<stop>.jsonl           one compact JSON record per user
  shard_<start>_<stop>.manifest.json   the commit point: study
                                       fingerprint, shard range,
                                       ENGINE_VERSION, byte count,
                                       record count, sha256 of the data
  shard_report_<start>_<stop>.json     the shard's mergeable report
  analysis.json                        every shard report, merged

Peak RSS is O(shard_size + distinct classes), independent of the total
user count — the render cache is shared across shards, so the classes a
later shard needs are almost always already rendered.

Determinism is the load-bearing property: population sampling and
per-user jitter streams are both seeded by *global user index*
(``sample_population_slice`` / ``_plan(first_index=...)``), so a shard
renders exactly the series the monolithic run would produce for those
users, bit for bit, regardless of how the population is partitioned.
The analysis layer exploits this: per-shard mergeable reports
(``repro.analysis.shards``) merge to the byte-identical analysis report
the monolithic path emits — ``benchmarks/bench_shard_scale.py`` gates
both the RSS bound and that bit-identity.

Crash safety: each shard's data file is written through the atomic
chunk writer (complete file or no file), and the manifest is written
*after* the data — a manifest on disk is proof its shard is complete
and hashed. Committed shards are the one resume mechanism: a run killed
mid-shard loses only that shard's work, and its rerun resumes every
committed shard (a manifest stamped with another study, engine or shard
range raises) and renders the rest. A shard whose bytes no longer match
its manifest is quarantined to ``*.corrupt`` (``verify_shard_data``
raises ``ShardIntegrityError``), and the next run re-renders it.
"""
from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

from ..io import (atomic_write_chunks, atomic_write_json, atomic_write_text,
                  load_document, quarantine)
from ..schema import COUNT, STRING, STUDY
from ..webaudio import ENGINE_VERSION
from .cache import RenderCache
from .dataset import StudyDataset
from .sampler import _integer, sample_population_slice
from .study import (_Tally, _assemble, _phase, _plan, _render_range,
                    _study_run, _write_report)

SHARD_KIND = "repro.study.shard"
SHARD_FORMAT = 1

_MANIFEST = {
    "kind": SHARD_KIND,
    "format": SHARD_FORMAT,
    "study": STUDY,
    "engine_version": STRING,
    "shard": {"start": COUNT, "stop": COUNT, "users": COUNT},
    "data": {"file": STRING, "bytes": COUNT, "sha256": STRING,
             "records": COUNT},
}


class ShardIntegrityError(ValueError):
    """A shard's on-disk bytes no longer match its manifest (torn,
    truncated, or bit-rotted data). The offending files are quarantined
    to ``*.corrupt`` before this is raised, so a retry starts clean."""


# -- shard geometry -----------------------------------------------------------

def shard_ranges(user_count: int, shard_size: int) -> list[tuple[int, int]]:
    """Partition ``[0, user_count)`` into ``shard_size``-user ranges (the
    last shard takes the remainder)."""
    shard_size = _integer("shard_size", shard_size, 1)
    return [(start, min(start + shard_size, user_count))
            for start in range(0, user_count, shard_size)]


def shard_stem(start: int, stop: int) -> str:
    return f"shard_{start:08d}_{stop:08d}"


@dataclass(frozen=True)
class ShardPaths:
    """Every on-disk artefact one shard owns."""
    data: str
    manifest: str
    report: str

    @classmethod
    def in_dir(cls, out_dir: str, start: int, stop: int) -> "ShardPaths":
        stem = os.path.join(out_dir, shard_stem(start, stop))
        report = os.path.join(
            out_dir, f"shard_report_{start:08d}_{stop:08d}.json")
        return cls(data=stem + ".jsonl", manifest=stem + ".manifest.json",
                   report=report)


# -- shard data format --------------------------------------------------------

def study_fingerprint(seed: int, user_count: int, iterations: int,
                      vectors) -> dict:
    """The study a manifest is stamped with; ``check_shard_study``
    refuses a manifest whose stamp differs from the run's."""
    return {"seed": seed, "user_count": user_count,
            "iterations": iterations, "vectors": list(vectors)}


def _record_lines(dataset: StudyDataset, start: int):
    """One compact, deterministic JSONL line per user.

    Insertion order is preserved (no ``sort_keys``): the record layout is
    already deterministic, and keeping ``Device.describe()``'s key order
    means a reassembled dataset serializes byte-identically to one the
    monolithic driver built."""
    for row, (uid, user) in enumerate(zip(dataset.user_ids(), dataset.users)):
        record = {
            "i": start + row,
            "user": user,
            "series": {vector: dataset.series[vector][uid]
                       for vector in dataset.vectors},
        }
        yield json.dumps(record, separators=(",", ":")) + "\n"


def write_shard(paths: ShardPaths, study: dict, index: int, start: int,
                stop: int, dataset: StudyDataset) -> dict:
    """Stream one shard's records to disk and commit its manifest.

    The data file goes through the atomic chunk writer (sha256 and byte
    count computed while streaming); the manifest is written only after
    the data file is in place — its presence is the completion marker a
    resumed run trusts.
    """
    digest = hashlib.sha256()
    counted = {"records": 0, "bytes": 0}

    def _chunks():
        for line in _record_lines(dataset, start):
            raw = line.encode("utf-8")
            digest.update(raw)
            counted["records"] += 1
            counted["bytes"] += len(raw)
            yield line

    atomic_write_chunks(paths.data, _chunks())
    manifest = {
        "kind": SHARD_KIND,
        "format": SHARD_FORMAT,
        "study": dict(study),
        "engine_version": ENGINE_VERSION,
        "shard": {"index": index, "start": start, "stop": stop,
                  "users": stop - start},
        "data": {"file": os.path.basename(paths.data),
                 "bytes": counted["bytes"],
                 "sha256": digest.hexdigest(),
                 "records": counted["records"]},
    }
    atomic_write_json(paths.manifest, manifest, indent=2, sort_keys=True)
    return manifest


def load_manifest(manifest_path: str):
    """Parse and structurally validate a shard manifest; ``None`` if the
    file does not exist. An unreadable or malformed manifest is
    quarantined with its shard's data and raises ``ShardIntegrityError``
    naming the problem."""
    manifest, problem = load_document(manifest_path, _MANIFEST,
                                      "shard manifest")
    if problem is not None:
        quarantine(manifest_path.removesuffix(".manifest.json") + ".jsonl")
        raise ShardIntegrityError(f"{problem}; shard quarantined")
    return manifest


def verify_shard_data(paths: ShardPaths, manifest: dict) -> None:
    """Check the data file against its manifest stamp (size + sha256);
    quarantine and raise ``ShardIntegrityError`` on any mismatch — a
    torn or truncated shard must never flow into a merge silently."""
    problem = _data_problem(paths.data, manifest["data"])
    if problem is not None:
        quarantine(paths.data)
        quarantine(paths.manifest)
        raise ShardIntegrityError(f"shard {os.path.basename(paths.data)}: "
                                  f"{problem}; shard quarantined")


def _data_problem(path: str, stamp: dict) -> str | None:
    try:
        size = os.path.getsize(path)
    except OSError:
        return "manifest present but data file missing"
    if size != stamp["bytes"]:
        return (f"data file is {size} bytes, manifest stamped "
                f"{stamp['bytes']} (torn or truncated)")
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    if digest.hexdigest() != stamp["sha256"]:
        return (f"data sha256 {digest.hexdigest()[:12]}… does not match "
                f"manifest {stamp['sha256'][:12]}…")
    return None


def check_shard_study(manifest: dict, study: dict, manifest_path: str,
                      expected_range: tuple[int, int] | None = None) -> None:
    """Reject a manifest that belongs to a different study or engine.

    Mixing shards across seeds, populations, or ENGINE_VERSIONs would
    silently poison a merged analysis, so each mismatch is a
    ``ValueError`` naming the offending field.
    """
    theirs = manifest["study"]
    for name in ("seed", "user_count", "iterations", "vectors"):
        if theirs.get(name) != study[name]:
            raise ValueError(
                f"shard manifest {manifest_path} belongs to a different "
                f"study: {name} is {theirs.get(name)!r}, this run has "
                f"{study[name]!r}")
    if manifest["engine_version"] != ENGINE_VERSION:
        raise ValueError(
            f"shard manifest {manifest_path} was rendered by engine_version "
            f"{manifest['engine_version']!r} but this build is "
            f"{ENGINE_VERSION!r} — delete the shard (or re-render the study) "
            "so versions never mix")
    if expected_range is not None:
        got = (manifest["shard"]["start"], manifest["shard"]["stop"])
        if got != tuple(expected_range):
            raise ValueError(
                f"shard manifest {manifest_path} covers range {got}, "
                f"expected {tuple(expected_range)}")


def iter_shard_records(data_path: str):
    """Yield the shard's user records (call after ``verify_shard_data``)."""
    with open(data_path, "r", encoding="utf-8") as fh:
        for line in fh:
            yield json.loads(line)


def dataset_from_records(manifest: dict, records: list[dict]) -> StudyDataset:
    """Rebuild one shard's (shard-sized) ``StudyDataset`` from records."""
    study = manifest["study"]
    shard = manifest["shard"]
    if len(records) != shard["users"]:
        raise ShardIntegrityError(
            f"shard covering [{shard['start']}, {shard['stop']}) holds "
            f"{len(records)} records, expected {shard['users']}")
    vectors = tuple(study["vectors"])
    users = []
    series: dict[str, dict[str, list[str]]] = {v: {} for v in vectors}
    for offset, record in enumerate(records):
        if record.get("i") != shard["start"] + offset:
            raise ShardIntegrityError(
                f"shard record {offset} is user index {record.get('i')!r}, "
                f"expected {shard['start'] + offset} (records out of order)")
        user = record["user"]
        users.append(user)
        for vector in vectors:
            series[vector][user["id"]] = record["series"][vector]
    return StudyDataset(seed=study["seed"], user_count=len(users),
                        iterations=study["iterations"], vectors=vectors,
                        users=users, series=series)


# -- the sharded driver -------------------------------------------------------

@dataclass
class ShardResult:
    """One shard's outcome within a sharded run."""
    index: int
    start: int
    stop: int
    paths: ShardPaths
    resumed: bool = False
    requarantined: bool = False


@dataclass
class ShardedStudy:
    """What ``run_study_sharded`` returns: where everything landed."""
    out_dir: str
    shards: list[ShardResult] = field(default_factory=list)
    merged_report_path: str | None = None


def run_study_sharded(user_count: int, shard_size: int, out_dir: str, *,
                      iterations: int = 30,
                      vectors: tuple[str, ...] = ("dc", "fft", "hybrid"),
                      seed: int = 2021, cache: RenderCache | None = None,
                      workers: int | None = None, recorder=None,
                      report_path: str | None = None,
                      retry_policy=None, retry_budget: int | None = None,
                      event_log_path: str | None = None,
                      progress=False) -> ShardedStudy:
    """Render the study sharded, streaming results to ``out_dir``.

    Arguments mirror ``run_study`` (same front door, so the same
    validation, defaults, supervision/chaos/telemetry semantics per
    shard and the same run-report shape), plus ``shard_size``, a
    positive integer: the population ``[0, user_count)`` is partitioned
    into ``ceil(user_count / shard_size)`` ranges of that many users
    (the last takes the remainder).

    A shard whose manifest already exists (same study fingerprint, same
    ENGINE_VERSION, data bytes intact) is resumed, not rendered; a shard
    whose data fails its integrity check is quarantined to ``*.corrupt``
    and re-rendered; a manifest from a *different* study or engine
    version, or stamped with another shard's range, raises ``ValueError``
    naming the field. A run killed mid-shard re-renders only that shard.
    Every shard's mergeable analysis report (``shard_report_*.json``) is
    written, or rebuilt when a resumed shard's is missing or unsound, and
    so is the merged analysis report (``analysis.json``), byte-identical
    to what the monolithic path produces.

    The run report's ``workload.grid_items`` covers the whole study,
    resumed shards included; ``distinct_classes`` counts only the
    classes of the shards this run planned (a resumed shard is never
    planned).

    The render cache is shared across shards, so equivalence classes
    are rendered once per *study*, not once per shard. Peak memory is
    O(shard_size + distinct classes): no full-population dataset ever
    exists in this process.
    """
    # resolve the shard geometry before the front door opens the event
    # log: a rejected call must leave no file (and no quarantine) behind
    ranges = shard_ranges(_integer("user_count", user_count, 1), shard_size)
    with _study_run(user_count, iterations, vectors, seed, cache=cache,
                    workers=workers, recorder=recorder,
                    report_path=report_path, event_log_path=event_log_path,
                    retry_policy=retry_policy, retry_budget=retry_budget,
                    progress=progress) as run:
        recorder = run.recorder
        result = ShardedStudy(out_dir=out_dir)
        recorder.event("study.start", users=run.user_count,
                       iterations=run.iterations, vectors=list(run.vectors),
                       seed=run.seed, workers=run.workers, sharded=True,
                       shards=len(ranges))
        # phase "plan" covers the *shard geometry* — per-shard population
        # sampling and grid planning happen inside each shard's render (that
        # locality is the whole point: no full-population plan ever exists)
        with _phase(recorder, "plan", users=run.user_count,
                    iterations=run.iterations, vectors=list(run.vectors),
                    shards=len(ranges)):
            os.makedirs(out_dir, exist_ok=True)
            study = study_fingerprint(run.seed, run.user_count,
                                      run.iterations, run.vectors)

        tally = _Tally()
        seen_classes: set[str] = set()
        rendered_classes = 0
        shard_reports: list[dict] = []
        with _phase(recorder, "render", shards=len(ranges)) as render_span:
            for index, (start, stop) in enumerate(ranges):
                shard = ShardResult(index=index, start=start, stop=stop,
                                    paths=ShardPaths.in_dir(out_dir, start,
                                                            stop))
                result.shards.append(shard)
                manifest = _committed_manifest(recorder, shard, study)
                if manifest is not None:
                    shard_reports.append(
                        _ensure_shard_report(shard.paths, manifest))
                    continue

                recorder.event("shard.start", shard=index, start=start,
                               stop=stop)
                with recorder.span("shard", index=index, start=start,
                                   stop=stop) as shard_span:
                    devices = sample_population_slice(run.user_count,
                                                      run.seed, start, stop)
                    grids, classes = _plan(run, devices, first_index=start)
                    seen_classes.update(key for key, _ in classes)
                    efps, _, misses = _render_range(run, tally, grids,
                                                    classes)
                    rendered_classes += misses
                    if run.measuring:
                        shard_span.set(users=stop - start,
                                       distinct_classes=len(classes),
                                       rendered=misses)
                    dataset = _assemble(run, devices, grids, classes, efps)
                    manifest = write_shard(shard.paths, study, index, start,
                                           stop, dataset)
                    shard_reports.append(_build_and_write_shard_report(
                        shard.paths, manifest, dataset))
                recorder.count("shard.completed")
                recorder.event("shard.end", shard=index, start=start,
                               stop=stop, records=manifest["data"]["records"],
                               classes=len(classes))
                # free this shard's grid before the next shard (or the
                # merge) builds its own: peak memory stays one shard's worth
                del devices, grids, classes, efps, dataset

        with _phase(recorder, "assemble"):
            from ..analysis.shards import (dumps_shard_or_merged,
                                           merge_shard_reports)
            merged = merge_shard_reports(shard_reports)
            result.merged_report_path = os.path.join(out_dir, "analysis.json")
            atomic_write_text(result.merged_report_path,
                              dumps_shard_or_merged(merged))
        recorder.event("study.end", grid_items=run.grid_items,
                       distinct_classes=len(seen_classes),
                       rendered=rendered_classes, shards=len(ranges))
        _write_report(run, tally, render_span.duration_s,
                      distinct_classes=len(seen_classes), shards=len(ranges))
        return result


def _committed_manifest(recorder, shard: ShardResult, study: dict):
    """The manifest of a shard an earlier run already committed, or None
    when the shard must be rendered: never committed, or its bytes failed
    the integrity check (the checker quarantined them)."""
    paths = shard.paths
    try:
        manifest = load_manifest(paths.manifest)
        if manifest is not None:
            check_shard_study(manifest, study, paths.manifest,
                              expected_range=(shard.start, shard.stop))
            verify_shard_data(paths, manifest)
    except ShardIntegrityError as exc:
        shard.requarantined = True
        recorder.count("shard.quarantined")
        recorder.event("shard.quarantine", shard=shard.index,
                       start=shard.start, stop=shard.stop, problem=str(exc))
        return None
    if manifest is not None:
        shard.resumed = True
        recorder.count("shard.resumed")
        recorder.event("shard.resume", shard=shard.index, start=shard.start,
                       stop=shard.stop, records=manifest["data"]["records"])
    return manifest


def _build_and_write_shard_report(paths: ShardPaths, manifest: dict,
                                  dataset: StudyDataset) -> dict:
    from ..analysis.shards import build_shard_report, dumps_shard_or_merged
    report = build_shard_report(dataset, manifest)
    atomic_write_text(paths.report, dumps_shard_or_merged(report))
    return report


def _ensure_shard_report(paths: ShardPaths, manifest: dict) -> dict:
    """Reuse a resumed shard's report when present and sound, else
    rebuild it from the shard records (reports are pure functions of the
    shard data, so either way the merge sees identical bytes)."""
    from ..analysis.shards import validate_shard_report
    try:
        with open(paths.report, "r", encoding="utf-8") as fh:
            report = json.load(fh)
        if not validate_shard_report(report) \
                and report.get("study") == manifest["study"] \
                and report.get("shard") == manifest["shard"]:
            return report
    except (OSError, json.JSONDecodeError, UnicodeDecodeError):
        pass
    records = list(iter_shard_records(paths.data))
    dataset = dataset_from_records(manifest, records)
    return _build_and_write_shard_report(paths, manifest, dataset)
