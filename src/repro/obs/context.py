"""The telemetry session and the zero-cost-by-default hook functions.

Instrumented code throughout the package calls the module-level
functions here (``incr``, ``observe``, ``span``, ``event``, ...).  When
no session is active — the default — each call is a single global load
plus an ``is None`` test, so benchmark numbers are unaffected unless
telemetry was explicitly requested (guarded by
``benchmarks/bench_faultsim_perf.py::bench_telemetry_off_overhead``).

A session is activated with::

    with obs.session(trace="run.jsonl") as telemetry:
        flow = generation_flow(s27())
    artifact = metrics_artifact(telemetry)

Sessions nest (the previous one is restored on exit); the model is one
active session per process — hot paths are single-threaded by design in
this package, and the registry makes no thread-safety promises.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from functools import wraps
from typing import Dict, Iterator, List, Optional, Tuple, Union

from . import ledger as _ledger
from .journal import RunJournal
from .metrics import MetricsRegistry
from .spans import SpanLog, resolve_track_rss
from .trace import new_trace_id


class Telemetry:
    """One observation session: metrics + spans + optional journal and
    per-fault provenance ledger.

    Every session carries a ``trace_id`` — minted here unless the caller
    supplies one (the serve daemon passes the job id) — identifying the
    trace all of the session's spans belong to.
    """

    def __init__(self, journal: Optional[RunJournal] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 ledger: Optional["_ledger.FaultLedger"] = None,
                 trace_id: Optional[str] = None,
                 track_rss: Optional[bool] = None):
        self.metrics = metrics or MetricsRegistry()
        self.spans = SpanLog(track_rss=resolve_track_rss(track_rss))
        self.journal = journal
        self.ledger = ledger
        self.trace_id = trace_id or (journal.trace_id if journal else None) \
            or new_trace_id()
        self._t0 = time.perf_counter()
        #: ``progress.*`` events, kept in memory even without a journal
        #: so :func:`progress_snapshot` works for journal-less sessions.
        self.progress_events: List[Tuple[str, Dict]] = []

    # -- metric forwarding ---------------------------------------------------

    def incr(self, name: str, amount: int = 1) -> None:
        self.metrics.incr(name, amount)

    def set_gauge(self, name: str, value: float) -> None:
        self.metrics.set_gauge(name, value)

    def observe(self, name: str, value: float) -> None:
        self.metrics.observe(name, value)

    # -- events ------------------------------------------------------------------

    def event(self, event_type: str, **data) -> None:
        """Emit a journal event (dropped when no journal is attached;
        ``progress.*`` events are additionally kept in memory for
        :func:`progress_snapshot`)."""
        if event_type.startswith("progress."):
            self.progress_events.append((event_type, dict(data)))
        if self.journal is not None:
            self.journal.emit(event_type, **data)

    def snapshot_event(self) -> None:
        """Journal a full metrics-registry dump."""
        self.event("metrics.snapshot", **self.metrics.snapshot())

    def coverage(self, phase: str, detected: int, total: int) -> None:
        """Record a per-phase fault-coverage data point (gauge + event)."""
        percent = 100.0 * detected / total if total else 100.0
        self.set_gauge(f"{phase}.coverage_percent", percent)
        self.event("coverage", phase=phase, detected=detected,
                   total=total, percent=round(percent, 4))

    # -- spans --------------------------------------------------------------------

    def span(self, name: str) -> "_SpanContext":
        return _SpanContext(self, name)

    def close(self) -> None:
        if self.journal is not None:
            self.journal.close()


class _SpanContext:
    """Context manager opening/closing one span on a live session."""

    __slots__ = ("_telemetry", "_name", "duration")

    def __init__(self, telemetry: Telemetry, name: str):
        self._telemetry = telemetry
        self._name = name
        #: Seconds the span took; populated on exit.
        self.duration: Optional[float] = None

    def __enter__(self) -> "_SpanContext":
        telemetry = self._telemetry
        path = telemetry.spans.open(self._name)
        telemetry.event("span.open", path=path,
                        depth=telemetry.spans.depth - 1,
                        span=telemetry.spans.current_span_id,
                        parent=telemetry.spans.current_parent_id)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        telemetry = self._telemetry
        record = telemetry.spans.close()
        self.duration = record.duration
        if record.rss_kb:
            # The per-path high-water mark as a gauge, so peak memory
            # rides along in metrics artifacts, run records and the
            # OpenMetrics export like any other metric.
            telemetry.set_gauge(f"{record.path}.peak_rss_kb",
                                record.rss_kb)
        telemetry.event("span.close", path=record.path,
                        duration=round(record.duration, 6),
                        span=record.span_id, parent=record.parent_id)


class _NoopSpan:
    """Shared do-nothing span handed out while telemetry is off."""

    __slots__ = ()
    duration = None

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NOOP_SPAN = _NoopSpan()

#: The active session, or None.  Module-level on purpose: the disabled
#: fast path must be one load + one comparison.
_active: Optional[Telemetry] = None


def active() -> Optional[Telemetry]:
    """The current session (None when telemetry is off)."""
    return _active


def enabled() -> bool:
    return _active is not None


def activate(telemetry: Telemetry) -> Optional[Telemetry]:
    """Install ``telemetry`` as the active session; returns the previous
    one so callers can restore it (prefer :func:`session`).  The
    session's fault ledger (or None) shadows any outer one, mirroring
    the metric/journal semantics."""
    global _active
    previous = _active
    _active = telemetry
    _ledger.activate(telemetry.ledger if telemetry is not None else None)
    return previous


def deactivate(previous: Optional[Telemetry] = None) -> None:
    global _active
    _active = previous
    _ledger.activate(previous.ledger if previous is not None else None)


@contextmanager
def session(trace: Union[str, None] = None,
            metrics: Optional[MetricsRegistry] = None,
            ledger: bool = False,
            trace_id: Optional[str] = None,
            track_rss: Optional[bool] = None) -> Iterator[Telemetry]:
    """Run a block with telemetry on.

    ``trace`` names a JSONL journal file to stream events to; without it
    only in-memory metrics and spans are collected.  ``ledger`` attaches
    a :class:`repro.obs.ledger.FaultLedger` recording the per-fault
    lifecycle (available as ``telemetry.ledger``).  ``trace_id`` joins
    an existing cross-process trace instead of minting a new one.
    ``track_rss`` samples peak RSS at every span close (default: the
    ``REPRO_TRACK_RSS`` environment switch).
    """
    trace_id = trace_id or new_trace_id()
    journal = RunJournal(trace, trace_id=trace_id) if trace else None
    fault_ledger = _ledger.FaultLedger() if ledger else None
    telemetry = Telemetry(journal=journal, metrics=metrics,
                          ledger=fault_ledger, trace_id=trace_id,
                          track_rss=track_rss)
    previous = activate(telemetry)
    try:
        yield telemetry
    finally:
        deactivate(previous)
        telemetry.close()


# -- hot-path hooks (cheap no-ops while disabled) ---------------------------------

def incr(name: str, amount: int = 1) -> None:
    telemetry = _active
    if telemetry is not None:
        telemetry.metrics.incr(name, amount)


def set_gauge(name: str, value: float) -> None:
    telemetry = _active
    if telemetry is not None:
        telemetry.metrics.set_gauge(name, value)


def observe(name: str, value: float) -> None:
    telemetry = _active
    if telemetry is not None:
        telemetry.metrics.observe(name, value)


def event(event_type: str, **data) -> None:
    telemetry = _active
    if telemetry is not None:
        telemetry.event(event_type, **data)


def coverage(phase: str, detected: int, total: int) -> None:
    telemetry = _active
    if telemetry is not None:
        telemetry.coverage(phase, detected, total)


def span(name: str):
    """Timed-span context manager; shared no-op while disabled."""
    telemetry = _active
    if telemetry is not None:
        return telemetry.span(name)
    return _NOOP_SPAN


class _Stopwatch:
    """Minimal always-on timer with the same ``duration`` contract as
    :class:`_SpanContext`; used where callers need the elapsed time even
    with telemetry off (e.g. ``GenerationFlow.elapsed_seconds``)."""

    __slots__ = ("duration", "_start")

    def __enter__(self) -> "_Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.duration = time.perf_counter() - self._start


def stopwatch(name: str):
    """Like :func:`span`, but the returned context manager measures
    ``duration`` even while telemetry is off (without recording a span
    anywhere)."""
    telemetry = _active
    if telemetry is not None:
        return telemetry.span(name)
    return _Stopwatch()


def timed(name: str):
    """Decorator form of :func:`span`."""
    def decorate(func):
        @wraps(func)
        def wrapper(*args, **kwargs):
            with span(name):
                return func(*args, **kwargs)
        return wrapper
    return decorate


def progress_snapshot():
    """A :class:`repro.obs.live.ProgressSnapshot` of the active session
    (phase tree, completion fraction, ETA), or None while telemetry is
    off.  Built from the session's own spans and ``progress.*`` events —
    no journal required; the journal-tailing equivalent for *other*
    processes lives in :mod:`repro.obs.live`."""
    telemetry = _active
    if telemetry is None:
        return None
    from .live import ProgressModel
    return ProgressModel.from_telemetry(telemetry).snapshot(
        now=time.perf_counter() - telemetry._t0)
