"""run_study, and the driver core both study drivers share.

Every eFP is a pure function of (vector, stack, jitter path), so the
paper's grid (2093 users x 30 iterations x the 11-vector battery)
collapses to its distinct equivalence classes. ``run_study`` works in
three phases:

  1. PLAN     — sample the population and deterministically pre-draw every
                iteration's jitter path (cheap, no DSP). The sampler is
                columnar (``repro.population.sampler``); every user's
                stream seed comes from one array pass of numpy's seed
                hash (``user_seeds``); each distinct stack object is
                keyed once, not once per user. Per block of users, one
                array pass replays every user's rng stream
                (``repro.platform.jitter.draw_path_codes``, byte-identical
                to the scalar draws) into integer path codes; the result
                is, per vector, a (users, iterations) grid of integer
                class ids, plus one class table holding each class's
                (vector, stack, path) and cache key.
  2. RENDER   — resolve every class to its eFP: probe the cache once per
                class, and render the misses grouped by (vector, stack), up to
                ``_MAX_BATCH`` rows per job and one engine pass per job
                (each row bit-identical to rendering it alone, pinned by
                tests). Groups run under a
                ``repro.resilience.SupervisedExecutor``: per-job deadlines,
                capped deterministic retries, bisection down to the poison
                class, inline fallback when the pool dies, and a retry
                budget that ends in a structured ``StudyExecutionError``.
  3. ASSEMBLE — per vector, map class ids to eFP codes (one pass over
                the class table) and index the grid with that map: array
                work, no per-item lookup. The dataset keeps the codes;
                string series are derived only for callers that
                serialize.

With the cache disabled every grid item is rendered (the honest
baseline); at ``_MAX_BATCH = 1`` every row is its own engine pass (the
serial reference the batching tests use).

``run_study`` and ``repro.population.shards.run_study_sharded`` share
one core — the front door ``_study_run``, the per-range step
``_render_range``, ``_assemble`` and ``_write_report`` — so the argument
rules, the telemetry lifecycle and the report shape each live in one
place. The monolithic driver runs each phase once over the whole
population; the sharded driver runs the same helpers once per shard,
and its committed shards are what a killed run resumes from.

Observability (repro.obs) is off by default: the null recorder takes no
per-render calls and the dataset is bit-identical either way. With a
``Recorder`` (implied by ``report_path`` / ``event_log_path``) each
batch is timed, the first batch per (vector, stack) also runs under the
per-node profiler, and pool workers ship their measurements and events
home next to the eFPs, so aggregate counters are identical at any worker
count. Each render step publishes its supervisor's ``counts`` as the
``retry.*`` / ``degraded.*`` counters, once, also when a quarantine
raises. ``event_log_path`` streams the event sequence to a crash-safe
JSONL sidecar; ``progress`` prints a live heartbeat to stderr.
"""
from __future__ import annotations

import os
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from ..io import atomic_write_json
from ..obs import (EventLog, NULL_RECORDER, ProgressMeter, Recorder,
                   make_event, profile_nodes)
from ..platform.jitter import PATHS, draw_path_codes
from ..platform.stacks import AudioStack
from ..resilience import RetryBudget, RetryPolicy, SupervisedExecutor
from ..resilience.faults import CORRUPT_EFP, render_faults
from ..vectors.base import is_efp
from ..vectors.registry import get_vector
from .cache import RenderCache
from .dataset import StudyDataset
from .device import Device, cache_key_of
from .sampler import _integer, sample_population, user_seeds

_STUDY_STREAM = 0x57D  # per-user jitter streams, disjoint from the sampler's

#: Users per planning block: bounds the plan's working set (each user's
#: prefetched rng words and class keys) while keeping the array pass wide.
_PLAN_BLOCK = 4096

#: Rows per render job. Caps a job's rows, the readout frames it windows
#: and transforms (one ``fft_size`` row per distinct jitter path), and the
#: unit a failed job is retried or bisected as, while keeping one graph
#: build and one engine pass for many rows; row results are independent,
#: so splitting a group across jobs cannot change any eFP.
_MAX_BATCH = 256

#: measure levels carried by each render job
_MEASURE_OFF = 0    # bare render, metrics slot is None
_MEASURE_TIME = 1   # wall-clock the render
_MEASURE_NODES = 2  # wall-clock + per-node profile


def _render_group(job: tuple[str, AudioStack, list, int]):
    """Pool worker: render one (vector, stack) batch group in a single
    engine pass. Top-level for pickling.

    Returns ``(pairs, metrics)`` where pairs is ``[(key, efp), ...]`` in
    member order and metrics is None unless the job asked to be measured.
    The chaos hook reads the fault plan once per job and fires for every
    member key in order: a crash/hang selected for any member takes the
    whole group (that is what bisection is for); a corrupt fault poisons
    only the selected member's row.
    """
    vector_name, stack, members, measure = job
    keys = [key for key, _ in members]
    corrupt_rows = render_faults(keys)
    start = time.perf_counter()
    with (profile_nodes() if measure >= _MEASURE_NODES
          else nullcontext()) as profiler:
        efps = get_vector(vector_name).render_batch(
            stack, [path for _, path in members])
    wall = time.perf_counter() - start
    for i in corrupt_rows:
        efps[i] = CORRUPT_EFP
    if not measure:
        return list(zip(keys, efps)), None
    metrics = {
        "vector": vector_name,
        "stack": stack.cache_key(),
        "wall_s": wall,
        "batch_size": len(members),
        "events": [make_event("render.batch", vector=vector_name,
                              stack=stack.cache_key(),
                              batch_size=len(members), wall_s=wall)],
    }
    if profiler is not None:
        metrics["nodes"] = profiler.seconds
        metrics["node_calls"] = profiler.calls
    return list(zip(keys, efps)), metrics


def _group_jobs(classes, rows, measuring: bool):
    """Batch-group jobs: group the rows (class ids into the class table
    ``classes``) by (vector, stack), split at ``_MAX_BATCH`` rows, attach
    measure levels.

    Grouping preserves row order (first-seen group order, member order
    within a group), so the job list — and with it the profiled set and
    every aggregate counter — is identical at any worker count. When
    measuring, every batch is timed and the first batch per (vector,
    stack) pair also carries the per-node profiler. Each distinct class
    is resolved once, the first time a row names it: its group and its
    one ``(key, path)`` member, which every later row of that class
    appends again; each distinct stack object is keyed once.
    """
    groups: dict[tuple[str, str], tuple[str, AudioStack, list]] = {}
    stack_keys: dict[int, str] = {}  # stack object id -> its key
    slots: list = [None] * len(classes)  # class id -> (append, member)
    for cid in rows:
        slot = slots[cid]
        if slot is None:
            key, (vector_name, stack, path) = classes[cid]
            stack_key = stack_keys.get(id(stack))
            if stack_key is None:
                stack_key = stack_keys[id(stack)] = stack.cache_key()
            entry = groups.get((vector_name, stack_key))
            if entry is None:
                entry = groups[vector_name, stack_key] = (vector_name,
                                                          stack, [])
            slot = slots[cid] = (entry[2].append, (key, path))
        slot[0](slot[1])
    jobs = []
    for vector_name, stack, members in groups.values():
        for lo in range(0, len(members), _MAX_BATCH):
            measure = (_MEASURE_OFF if not measuring else
                       _MEASURE_NODES if lo == 0 else _MEASURE_TIME)
            jobs.append((vector_name, stack, members[lo:lo + _MAX_BATCH],
                         measure))
    return jobs


# -- supervision plumbing: validate / split / name render jobs ----------------

def _validate_group_result(job, result) -> bool:
    """A job's result is valid when it has one pair per member, in member
    order, each carrying a well-formed eFP (each distinct one checked
    once); anything else is a corrupted worker return."""
    pairs, _metrics = result
    return ([key for key, _ in pairs] == _group_job_keys(job)
            and all(map(is_efp, {efp for _, efp in pairs})))


def _group_job_keys(job) -> list[str]:
    return [key for key, _ in job[2]]


def _split_group_job(job):
    """Bisect a failing batch group so the supervisor can corner the
    poison member. The first half inherits the parent's measure level
    (a profiled group keeps exactly one profiled descendant); results
    stay bit-identical because batch rows never interact."""
    vector_name, stack, members, measure = job
    if len(members) < 2:
        return None
    mid = len(members) // 2
    tail_measure = _MEASURE_TIME if measure else _MEASURE_OFF
    return [(vector_name, stack, members[:mid], measure),
            (vector_name, stack, members[mid:], tail_measure)]


def _absorb_batch_metrics(recorder, metrics: dict) -> None:
    """Fold one batch-group metrics snapshot into the parent recorder.

    Per-vector latency histograms keep one observation per *render* (the
    batch wall clock amortized over its rows, observed once with the
    batch's row count), so their counts still equal the render count; the
    batch-level cost lands in ``render.batch_size`` and
    ``render.batch_wall_s.<vector>`` — together they show the amortization
    directly.
    """
    size = metrics["batch_size"]
    wall = metrics["wall_s"]
    vector = metrics["vector"]
    recorder.count("render.renders", size)
    recorder.count("render.batches")
    recorder.observe("render.batch_size", size)
    recorder.observe(f"render.batch_wall_s.{vector}", wall)
    recorder.observe(f"render.latency_s.{vector}", wall / size, size)
    recorder.observe("pool.task_wall_s", wall)
    for event in metrics.get("events", ()):
        recorder.merge_event(event)
    if "nodes" in metrics:
        recorder.count("render.profiled_renders")
        recorder.record_node_profile(metrics["stack"], metrics["nodes"],
                                     metrics["node_calls"])


def _distinct(devices, field: str) -> tuple[list[int], np.ndarray]:
    """Group ``devices`` by the identity of their ``field`` object (the
    sampler shares one object among the devices holding a stack).
    Returns the first device row of each group and each device's group."""
    addresses = np.array(list(map(id, map(attrgetter(field), devices))),
                         dtype=np.uintp)
    _, first, group = np.unique(addresses, return_index=True,
                                return_inverse=True)
    return first.tolist(), group


def _stack_ids(vector, devices, first: list[int], group: np.ndarray):
    """Each device's stack id for ``vector``, and the stacks: ``stacks[id]``
    is ``(stack, key)``. ``first`` and ``group`` are ``_distinct`` of the
    vector's ``stack_field``, so ``stack_of`` and ``cache_key`` run once per
    distinct object, not once per device; objects with one key share an
    id. Class ids never depend on this numbering.

    Each vector fingerprints its own per-device stack (the audio stack
    for audio vectors; UA/canvas/fonts/math identities for the
    comparators). The class key and the render input both come from that
    stack, so the cache stays a pure function of (vector, stack, path)
    across every fingerprint surface."""
    ids: dict[str, int] = {}
    stacks: list[tuple[object, str]] = []
    sids = np.empty(len(first), dtype=np.int32)
    for index, row in enumerate(first):
        stack = vector.stack_of(devices[row])
        stack_key = stack.cache_key()
        sids[index] = ids.setdefault(stack_key, len(stacks))
        if len(ids) > len(stacks):
            stacks.append((stack, stack_key))
    return sids[group], stacks


def _plan(run: _StudyRun, devices: list[Device], first_index: int = 0):
    """Pre-draw all jitter paths; return the class-id grids and the class
    table.

    ``grids[vector]`` is a ``(users, iterations)`` int32 array of class
    ids (for an analyser-free vector, a read-only broadcast of one id per
    user) and ``classes[id]`` is ``(key, (vector, stack, path))``. Ids
    follow first-seen order (user by user, each user's vectors in run
    order), so within one vector ascending id order is first-appearance
    order in its grid; a class's cache key is built once, when it is
    first seen. Analyser-free vectors draw nothing from the rng, so
    adding/removing them never shifts another vector's jitter stream,
    and each of their rows is one class broadcast over every iteration.
    ``first_index`` is the global population index of ``devices[0]`` —
    per-user jitter streams are seeded by global index, so planning a
    shard of the population draws exactly the paths the monolithic plan
    would.

    Stack ids come first: the devices are grouped once by the object in
    each ``stack_field`` the battery reads, and each vector keys one
    stack per distinct object (``_stack_ids``). Users then go in blocks
    of ``_PLAN_BLOCK``: ``user_seeds`` hashes the block's stream seeds
    in one pass, and ``draw_path_codes`` draws its paths as integer
    codes in one array pass. Within a vector a class is then one
    integer, ``stack id * 32 + path code`` (the stack id alone for an
    analyser-free vector); a dense table maps it to its class id,
    ``np.minimum.at`` finds where each new class is first seen, and the
    new classes get their ids per vector in one array assignment.
    """
    iterations = run.iterations
    battery = [(name, get_vector(name)) for name in run.vectors]
    analysers = [name for name, vector in battery if vector.uses_analyser]
    grids = {name: np.empty((len(devices), iterations
                             if vector.uses_analyser else 1), dtype=np.int32)
             for name, vector in battery}
    classes: list[tuple[str, tuple[str, AudioStack, str]]] = []
    groups = {field: _distinct(devices, field) for field in
              dict.fromkeys(vector.stack_field for _, vector in battery)}
    stack_ids, stacks = {}, {}
    for name, vector in battery:
        stack_ids[name], stacks[name] = _stack_ids(
            vector, devices, *groups[vector.stack_field])
    # per vector: the class id of every class integer (-1 = not seen yet)
    class_ids = {name: np.empty(0, dtype=np.int32) for name in run.vectors}
    for lo in range(0, len(devices), _PLAN_BLOCK):
        block = devices[lo:lo + _PLAN_BLOCK]
        streams = [np.random.PCG64(seeds) for seeds in user_seeds(
            run.seed, _STUDY_STREAM, first_index + lo,
            first_index + lo + len(block))]
        loads = np.fromiter((device.load for device in block),
                            dtype=np.float64, count=len(block))
        codes = draw_path_codes(streams, loads, len(analysers), iterations)
        block_keys = {}  # per vector: the block's class integers
        unseen = []  # per vector: (user, vector, iteration, class integer)
        for order, (name, vector) in enumerate(battery):
            sids = stack_ids[name][lo:lo + len(block)]
            if vector.uses_analyser:
                keys = sids[:, None] * len(PATHS) \
                    + codes[:, analysers.index(name)]
                space = len(stacks[name]) * len(PATHS)
            else:
                keys = sids[:, None]
                space = len(stacks[name])
            ids = class_ids[name]
            if len(ids) < space:
                ids = class_ids[name] = np.concatenate(
                    [ids, np.full(space - len(ids), -1, dtype=np.int32)])
            first = np.full(space, keys.size)
            np.minimum.at(first, keys.ravel(), np.arange(keys.size))
            new = np.flatnonzero((first < keys.size) & (ids < 0))
            user, column = np.divmod(first[new], keys.shape[1])
            unseen.append(np.stack([user, np.full(len(new), order), column,
                                    new]))
            block_keys[name] = keys
        # new classes take ids in first-seen order: by user, then vector
        # (run order), then iteration
        unseen = np.concatenate(unseen, axis=1)
        _, seen_in, _, seen = unseen[:, np.lexsort(unseen[2::-1])]
        added = [None] * len(seen)
        for order, (name, vector) in enumerate(battery):
            at = np.flatnonzero(seen_in == order)
            class_ids[name][seen[at]] = len(classes) + at
            if vector.uses_analyser:
                sids, codes_at = np.divmod(seen[at], len(PATHS))
                paths = [PATHS[code] for code in codes_at.tolist()]
            else:
                sids, paths = seen[at], [vector.canonical_path(None)] * len(at)
            for position, sid, path in zip(at.tolist(), sids.tolist(), paths):
                stack, stack_key = stacks[name][sid]
                added[position] = (RenderCache.make_key(name, stack_key, path),
                                   (name, stack, path))
        classes.extend(added)
        for name, keys in block_keys.items():
            grids[name][lo:lo + len(block)] = class_ids[name][keys]
    for name, vector in battery:
        if not vector.uses_analyser:
            grids[name] = np.broadcast_to(grids[name],
                                          (len(devices), iterations))
    return grids, classes


# -- the driver core ---------------------------------------------------------

@dataclass(frozen=True)
class _StudyRun:
    """One run's validated arguments, plus the recorder and cache the
    front door attached for it."""

    user_count: int
    iterations: int
    vectors: tuple[str, ...]
    seed: int
    cache: RenderCache
    recorder: object
    #: the most processes a render step may pool (0 or 1 = inline)
    workers: int
    retry_policy: RetryPolicy | None
    retry_budget: int | None
    report_path: str | None
    event_log_path: str | None
    progress: object

    @property
    def measuring(self) -> bool:
        return self.recorder.enabled

    @property
    def grid_items(self) -> int:
        """Every (user, iteration, vector) item the study covers."""
        return self.user_count * self.iterations * len(self.vectors)


@dataclass
class _Tally:
    """What a run's render steps add up to; the run report reads it."""

    workers: int = 0  # the largest pool a render step used (<= 1: inline)


@contextmanager
def _study_run(user_count, iterations, vectors, seed, *, cache, workers,
               recorder, report_path, event_log_path, retry_policy,
               retry_budget, progress):
    """The front door both drivers share, and the one place their
    common argument rules live (the sharded driver checks its own shard
    geometry before entering, so that too fails before any side effect).

    Validates and normalizes the arguments (integers as ``int``,
    ``vectors`` as a tuple) and resolves the worker count; defaults the
    recorder (a fresh ``Recorder`` when a report or an event log is
    asked for, else the null recorder) and the cache; attaches the event
    log and the cache's recorder for the life of the block; and yields
    the run as one frozen ``_StudyRun``.
    """
    user_count = _integer("user_count", user_count, 1)
    iterations = _integer("iterations", iterations, 1)
    if isinstance(vectors, str):
        raise ValueError(f"vectors must be a sequence of vector names, "
                         f"not the string {vectors!r}")
    try:
        vectors = tuple(vectors)
    except TypeError:
        raise ValueError(f"vectors must be a sequence of vector names, "
                         f"got {vectors!r}") from None
    if not vectors:
        raise ValueError("vectors must be non-empty")
    seed = _integer("seed", seed, 0)
    workers = (os.cpu_count() or 1) if workers is None \
        else _integer("workers", workers, 0)
    if retry_budget is not None:
        retry_budget = _integer("retry_budget", retry_budget, 0)
    for i, name in enumerate(vectors):
        get_vector(name)  # fail fast on unknown vectors (UnknownVectorError)
        if name in vectors[:i]:
            # a duplicate would silently double-count the vector's series
            # assembly; reject it before any rendering happens
            raise ValueError(f"duplicate vector {name!r} in vectors")

    if recorder is None:
        recorder = Recorder() if (report_path is not None
                                  or event_log_path is not None) \
            else NULL_RECORDER
    if cache is None:
        cache = RenderCache()
    run = _StudyRun(
        user_count=user_count, iterations=iterations, vectors=vectors,
        seed=seed, cache=cache, recorder=recorder, workers=workers,
        retry_policy=retry_policy, retry_budget=retry_budget,
        report_path=report_path, event_log_path=event_log_path,
        progress=progress)
    event_log = None
    if event_log_path is not None and recorder.enabled:
        event_log = EventLog(event_log_path)
        recorder.attach_event_log(event_log)
    cache.attach_recorder(recorder)
    try:
        yield run
    finally:
        cache.detach_recorder()
        if event_log is not None:
            recorder.detach_event_log()
            event_log.close()


@contextmanager
def _phase(recorder, name: str, **attrs):
    """One top-level phase: ``phase.start`` / ``phase.end`` events around
    a span of the same name (yielded, so the caller can set attributes)."""
    recorder.event("phase.start", phase=name)
    with recorder.span(name, **attrs) as span:
        yield span
    recorder.event("phase.end", phase=name)


def _render_range(run: _StudyRun, tally: _Tally, grids,
                  classes) -> tuple[list[str], int]:
    """The per-range step both drivers share: probe, then render one
    planned range of the population.

    The rows to render are class ids: the probe's misses, which render
    as supervised batch groups and go into the cache. With the cache
    disabled the probe degrades to the honest baseline: one real render
    per grid item, the grid's class ids in grid order (user by user, each
    user's vectors in run order), charged through the miss-counter API so
    benchmark speedups isolate the cache. Returns ``(efps, rendered)``:
    one eFP per class id (from the probe or the renderer), and the number
    of distinct classes rendered.
    """
    recorder, cache = run.recorder, run.cache
    found: dict[str, str] = {}  # probe hits: class key -> eFP
    if cache.disabled:
        rows = np.stack([grids[name] for name in run.vectors],
                        axis=1).ravel().tolist()
        cache.record_miss(len(rows))
    else:
        with recorder.span("probe"):
            rows = []
            for cid, (key, _) in enumerate(classes):
                efp = cache.get(key)
                if efp is None:
                    rows.append(cid)
                else:
                    found[key] = efp

    jobs = _group_jobs(classes, rows, run.measuring)
    workers = min(run.workers, len(jobs))  # a pool never outnumbers its jobs
    budget = (None if run.retry_budget is None
              else RetryBudget(run.retry_budget))
    supervisor = SupervisedExecutor(
        _render_group, workers=workers, policy=run.retry_policy,
        budget=budget, recorder=recorder, seed=run.seed,
        splitter=_split_group_job, validator=_validate_group_result,
        keys_of=_group_job_keys)

    meter = None
    if run.progress:
        stream = run.progress if hasattr(run.progress, "write") else None
        meter = ProgressMeter(total_jobs=len(jobs), total_rows=len(rows),
                              stream=stream)

    rendered: dict[str, str] = {}
    completed_jobs = rows_done = 0
    counts = supervisor.counts
    try:
        for pairs, metrics in supervisor.run(jobs):
            rendered.update(pairs)
            if metrics is not None:
                _absorb_batch_metrics(recorder, metrics)
            completed_jobs += 1
            rows_done += len(pairs)
            if meter is not None:
                meter.update(completed_jobs, rows_done,
                             retries=counts["retry.retries"],
                             hit_rate=cache.hit_rate)
    finally:
        # the supervisor's counts are the step's record: published once,
        # also when a quarantine raises
        if run.measuring:
            recorder.count("pool.jobs", len(jobs))
            for name, value in counts.items():
                recorder.count(name, value)
    if meter is not None:
        meter.finish(rows_done, retries=counts["retry.retries"],
                     hit_rate=cache.hit_rate)
    if not cache.disabled:
        for key, efp in rendered.items():
            cache.put(key, efp)
    tally.workers = max(tally.workers, workers)
    found.update(rendered)
    return [found[key] for key, _ in classes], len(rendered)


def _assemble(run: _StudyRun, devices: list[Device], grids, classes,
              efps: list[str]) -> StudyDataset:
    """One range's dataset, by array indexing: per vector, class ids map
    to eFP codes in first-appearance order (several classes may share an
    eFP), and the class-id grid indexes that map. One pass over the class
    table builds every vector's map: the plan numbers each vector's
    classes in first-appearance order, so ascending id is that order.
    Each distinct stack object's cache key is computed once for the
    user records. The cache is never read; the grid's hits are charged
    in one call, as the per-item lookups they stand for would have
    been."""
    tables: dict[str, dict[str, int]] = {name: {} for name in run.vectors}
    codes_of = np.array([tables[name].setdefault(efp, len(tables[name]))
                         for (_, (name, _, _)), efp in zip(classes, efps)],
                        dtype=np.int64)  # class id -> eFP code
    interned = {name: (codes_of.take(grids[name]), list(tables[name]))
                for name in run.vectors}
    if not run.cache.disabled:
        run.cache.record_hit(sum(grid.size for grid in grids.values()))
    keys: dict[int, str | None] = {}  # stack object id -> its key

    def key_of(stack):
        key = keys.get(id(stack))
        if key is None:
            key = keys[id(stack)] = cache_key_of(stack)
        return key

    return StudyDataset(seed=run.seed, user_count=len(devices),
                        iterations=run.iterations, vectors=run.vectors,
                        users=[device.describe(key_of) for device in devices],
                        interned=interned)


def _write_report(run: _StudyRun, tally: _Tally, render_s: float,
                  **workload) -> None:
    """Write the run report to ``run.report_path`` (no-op when unset).

    ``render_s`` is the render phase's wall clock (the pool-utilization
    denominator); ``workload`` adds driver-specific fields to the
    report's workload section.
    """
    if run.report_path is None:
        return
    from ..obs.report import build_report  # deferred: only report users pay for it
    recorder = run.recorder
    pool = None
    if run.measuring:
        busy = recorder.histograms.get("pool.task_wall_s")
        busy_s = busy.total if busy else 0.0
        lanes = max(tally.workers, 1)
        pool = {"workers": tally.workers,
                "utilization": round(busy_s / (render_s * lanes), 4)
                if render_s > 0 else None}
    workload = {"users": run.user_count, "iterations": run.iterations,
                "vectors": list(run.vectors), "seed": run.seed,
                "grid_items": run.grid_items, **workload}
    report = build_report(recorder, workload, cache_stats=run.cache.stats(),
                          pool=pool, events_path=run.event_log_path)
    atomic_write_json(run.report_path, report, indent=2)


# -- the monolithic driver ---------------------------------------------------

def run_study(user_count: int, iterations: int = 30,
              vectors: tuple[str, ...] = ("dc", "fft", "hybrid"),
              seed: int = 2021, cache: RenderCache | None = None,
              workers: int | None = None, recorder=None,
              report_path: str | None = None,
              retry_policy: RetryPolicy | None = None,
              retry_budget: int | None = None,
              event_log_path: str | None = None,
              progress=False) -> StudyDataset:
    """Run the synthetic study and return its dataset.

    ``user_count`` and ``iterations`` are positive integers, and
    ``seed``, ``workers`` and ``retry_budget`` (the last two
    unless None) non-negative ones (any ``operator.index`` value, never a
    bool); ``vectors`` is a non-empty sequence of distinct
    vector names (not a bare string). Anything else raises a
    ``ValueError`` naming the argument; an unknown vector name raises
    ``UnknownVectorError``.
    ``workers``: the most processes the render step may use; None = the
    machine's core count (``os.cpu_count()``), 0 or 1 = render inline.
    The step pools ``min(workers, jobs)`` processes for its jobs, one job
    per (vector, stack) batch group, so a single job renders inline.
    ``recorder``: a ``repro.obs.Recorder`` to instrument the run; None =
    observability off (null object, no per-render overhead) unless
    ``report_path`` or ``event_log_path`` is set, which implies a fresh
    recorder.
    ``report_path``: write a machine-readable run report (see repro.obs)
    here after the study completes.
    ``retry_policy`` / ``retry_budget``: supervision knobs (see
    ``repro.resilience``); defaults retry failed or hung render jobs with
    capped deterministic backoff and give up — raising
    ``StudyExecutionError`` naming the quarantined classes — once the
    budget is spent. A None budget is sized from the job count.
    ``event_log_path``: stream the run's telemetry events (see
    ``repro.obs.events``) to this crash-safe append-only JSONL sidecar;
    the run report gains an ``events`` summary section pointing at it.
    Appending to an existing log quarantines any torn tail a previous
    crash left to ``<path>.corrupt`` first.
    ``progress``: True (or a writable stream) prints a throttled
    heartbeat — classes done/total, renders/s, cache hit rate, retries,
    ETA — to stderr (or the stream) while the render phase runs. Off by
    default and costs nothing when off.
    Results are bit-identical regardless of worker count, cache state,
    batch size, observability, or any fault recovery that succeeds. A
    run that must survive being killed goes through
    ``repro.population.shards.run_study_sharded``, whose rerun resumes
    every committed shard.
    """
    with _study_run(user_count, iterations, vectors, seed, cache=cache,
                    workers=workers, recorder=recorder,
                    report_path=report_path, event_log_path=event_log_path,
                    retry_policy=retry_policy, retry_budget=retry_budget,
                    progress=progress) as run:
        recorder = run.recorder
        recorder.event("study.start", users=run.user_count,
                       iterations=run.iterations, vectors=list(run.vectors),
                       seed=run.seed, workers=run.workers)
        with _phase(recorder, "plan", users=run.user_count,
                    iterations=run.iterations,
                    vectors=list(run.vectors)) as plan_span:
            devices = sample_population(run.user_count, run.seed)
            grids, classes = _plan(run, devices)
            if run.measuring:
                plan_span.set(grid_items=run.grid_items,
                              distinct_classes=len(classes))
        tally = _Tally()
        with _phase(recorder, "render") as render_span:
            efps, rendered = _render_range(run, tally, grids, classes)
        with _phase(recorder, "assemble"):
            dataset = _assemble(run, devices, grids, classes, efps)
        recorder.event("study.end", grid_items=run.grid_items,
                       distinct_classes=len(classes), rendered=rendered)
        _write_report(run, tally, render_span.duration_s,
                      distinct_classes=len(classes))
        return dataset
