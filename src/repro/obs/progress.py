"""Live study progress: an opt-in stderr heartbeat.

``run_study(progress=True)`` threads a ``ProgressMeter`` through the
supervisor's completion loop. Every completed render job offers an
update; the meter rate-limits itself to one line per ``interval_s`` so a
million-class run costs a clock read per job, not a terminal write. The
line carries what an operator actually watches during a long collection:

    [repro.study] rows 120/249  1034.2 rows/s  cache 34.2% hit  \
retries 0  eta 0.1s

A row is one render the driver asked for: one per grid item with the
cache off, one per distinct class the cache missed with it on. The
count is the rows of completed jobs, so a finished run ends on N/N.

Disabled (the default) the driver holds no meter at all — zero calls per
render, zero per job — preserving the NullRecorder fast-path contract.
The meter is recorder-independent on purpose: progress works with
observability off, and observability works headless.
"""
from __future__ import annotations

import sys
import time


class ProgressMeter:
    """Throttled progress reporter for the render phase."""

    def __init__(self, total_jobs: int, total_rows: int, stream=None,
                 interval_s: float = 0.5, clock=time.monotonic):
        self._total_jobs = total_jobs
        self._total_rows = total_rows
        self._stream = stream if stream is not None else sys.stderr
        self._interval_s = interval_s
        self._clock = clock
        self._start = clock()
        self._last_emit = float("-inf")
        self.lines_written = 0

    def _line(self, rows_done: int, retries: int, hit_rate: float | None,
              now: float) -> str:
        elapsed = max(now - self._start, 1e-9)
        rate = rows_done / elapsed
        parts = [f"rows {rows_done}/{self._total_rows}",
                 f"{rate:.1f} rows/s"]
        if hit_rate is not None:
            parts.append(f"cache {hit_rate * 100:.1f}% hit")
        parts.append(f"retries {retries}")
        remaining = self._total_rows - rows_done
        if rate > 0 and remaining >= 0:
            parts.append(f"eta {remaining / rate:.1f}s")
        return "[repro.study] " + "  ".join(parts)

    def update(self, jobs_done: int, rows_done: int, retries: int = 0,
               hit_rate: float | None = None) -> None:
        """Offer a progress sample; emits at most one line per interval
        (the final job always emits)."""
        now = self._clock()
        if jobs_done < self._total_jobs \
                and now - self._last_emit < self._interval_s:
            return
        self._last_emit = now
        self._stream.write(
            self._line(rows_done, retries, hit_rate, now) + "\n")
        self._stream.flush()
        self.lines_written += 1

    def finish(self, rows_done: int, retries: int = 0,
               hit_rate: float | None = None) -> None:
        """Final summary line (emitted even when nothing needed
        rendering, so an all-cached resume still reports itself)."""
        now = self._clock()
        wall = now - self._start
        line = self._line(rows_done, retries, hit_rate, now)
        self._stream.write(f"{line}  done in {wall:.1f}s\n")
        self._stream.flush()
        self.lines_written += 1
