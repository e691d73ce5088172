"""Nestable timed spans.

A span is one timed region of execution (a pipeline phase, an ATPG
targeting pass, one compaction sweep).  Spans nest: the log keeps a
stack of open spans and names each completed record by its dotted
*path* — ``pipeline.generation/atpg`` is an ``atpg`` span opened while
``pipeline.generation`` was open.  Aggregation by path gives the
per-phase time breakdown that ``repro-atpg profile`` prints and the
metrics artifact exports.

Timing uses ``time.perf_counter`` (monotonic); wall-clock correlation
is the journal's job.  A span is its path: flows run in one process,
so the path and the open/close order identify every span.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple


def peak_rss_kb() -> int:
    """This process's peak resident set size in KiB (0 when the
    platform cannot tell).  ``ru_maxrss`` is a high-water mark, so the
    value sampled at a span's close is the peak *up to* that point —
    monotone across a run, which is exactly what per-phase memory
    gauges want."""
    try:
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    except (ImportError, OSError, ValueError):
        return 0
    if sys.platform == "darwin":
        peak //= 1024  # macOS reports bytes, Linux kilobytes
    return int(peak)


@dataclass(frozen=True)
class SpanRecord:
    """One completed span."""

    path: str       # "parent/child" chain of names
    name: str       # leaf name
    depth: int      # nesting depth at open time (0 = root)
    start: float    # perf_counter at open
    end: float      # perf_counter at close
    rss_kb: int = 0  # peak RSS at close (0 = platform cannot tell)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanLog:
    """Open-span stack plus the completed-record list of one session.

    Every close samples the process's peak RSS (:func:`peak_rss_kb`)
    into the record, and :meth:`aggregate` rolls a ``peak_rss_kb``
    maximum per path — the per-phase memory column ``repro-atpg
    profile`` and the run records surface.
    """

    def __init__(self):
        # (name, path, start)
        self._stack: List[Tuple[str, str, float]] = []
        self.records: List[SpanRecord] = []

    @property
    def depth(self) -> int:
        return len(self._stack)

    @property
    def current_path(self) -> str:
        return self._stack[-1][1] if self._stack else ""

    def open(self, name: str) -> str:
        """Open a nested span; returns its dotted path."""
        if "/" in name:
            raise ValueError(f"span name may not contain '/': {name!r}")
        parent = self.current_path
        path = f"{parent}/{name}" if parent else name
        self._stack.append((name, path, time.perf_counter()))
        return path

    def close(self) -> SpanRecord:
        """Close the innermost open span and record it."""
        if not self._stack:
            raise RuntimeError("no open span to close")
        name, path, start = self._stack.pop()
        record = SpanRecord(
            path=path,
            name=name,
            depth=len(self._stack),
            start=start,
            end=time.perf_counter(),
            rss_kb=peak_rss_kb(),
        )
        self.records.append(record)
        return record

    def aggregate(self) -> Dict[str, Dict[str, float]]:
        """Per-path totals over completed spans, ordered by first *open*
        time (so parents precede their children, siblings keep run order),
        each with the per-path ``peak_rss_kb`` maximum.
        """
        result: Dict[str, Dict[str, float]] = {}
        for record in self.records:
            entry = result.setdefault(
                record.path,
                {"count": 0, "total_seconds": 0.0, "depth": record.depth,
                 "first_start": record.start, "peak_rss_kb": 0},
            )
            entry["count"] += 1
            entry["total_seconds"] += record.duration
            entry["first_start"] = min(entry["first_start"], record.start)
            entry["peak_rss_kb"] = max(entry["peak_rss_kb"], record.rss_kb)
        return dict(sorted(result.items(),
                           key=lambda item: item[1]["first_start"]))
