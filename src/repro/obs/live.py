"""Live run monitoring: journal tailing, a progress/ETA model, and the
text renderer behind ``repro-atpg watch``.

Three layers, each usable alone:

:class:`JournalFollower`
    Incremental reader of a *growing* journal.  It tolerates the
    in-flight truncated tail (the single writer may be mid-``write``
    when a poll happens) and never writes — tailers are read-only by
    contract (see :mod:`repro.obs.journal`).

:class:`ProgressModel`
    An event-fold: feed it journal events (live from a follower, or a
    whole recorded journal) and ask for a :class:`ProgressSnapshot` —
    phase tree, an overall completion fraction and an ETA.  Static
    phase weights (:data:`DEFAULT_PHASE_WEIGHTS`) split the fraction
    across phases; ``progress.work`` totals give the fraction inside
    the active one.

:func:`render_watch`
    Plain-text rendering of a snapshot (progress bars, top metrics) —
    what ``repro-atpg watch`` prints, and deliberately pipe/CI friendly
    (pure ASCII, no cursor control).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

#: Relative expected cost per pipeline phase (leaf span name).  Units
#: are arbitrary — only ratios matter.  Derived from typical benchmark
#: splits: ATPG and the two compaction passes dominate; structural
#: passes are noise.
DEFAULT_PHASE_WEIGHTS: Dict[str, float] = {
    "scan_insert": 1.0,
    "collapse": 2.0,
    "atpg": 50.0,
    "baseline_atpg": 40.0,
    "translate": 3.0,
    "redundancy": 5.0,
    "restoration": 15.0,
    "omission": 25.0,
}

#: Weight assumed for a phase no table mentions.
_UNKNOWN_PHASE_WEIGHT = 5.0


# ---------------------------------------------------------------------------
# Journal tailing
# ---------------------------------------------------------------------------

class JournalFollower:
    """Tail one run journal.

    ``poll()`` returns every event appended since the previous poll,
    each tagged with ``_wall`` (absolute wall-clock seconds).  Strictly
    read-only — the writer is elsewhere.

    Reads in binary and splits on newlines itself, so a poll that races
    the writer mid-``write`` simply buffers the partial tail until the
    rest arrives — no event is ever lost or double-read, and a torn
    line never reaches ``json.loads``.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self.offset = 0
        self.finished = False     # saw the journal.close
        self.malformed = 0        # complete-but-unparseable lines skipped
        self._buffer = b""
        self._base_wall: Optional[float] = None

    def poll(self) -> List[Dict]:
        """Drain everything newly appended (possibly nothing)."""
        try:
            with self.path.open("rb") as fh:
                fh.seek(self.offset)
                chunk = fh.read()
                self.offset = fh.tell()
        except OSError:
            return []
        return self._parse(chunk)

    def _parse(self, chunk: bytes) -> List[Dict]:
        if not chunk:
            return []
        self._buffer += chunk
        *lines, self._buffer = self._buffer.split(b"\n")
        events: List[Dict] = []
        for raw in lines:
            raw = raw.strip()
            if not raw:
                continue
            try:
                event = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                self.malformed += 1
                continue
            if not isinstance(event, dict):
                self.malformed += 1
                continue
            etype = event.get("type")
            if etype == "journal.open" and self._base_wall is None:
                wall = (event.get("data") or {}).get("wall_time")
                if isinstance(wall, (int, float)):
                    self._base_wall = wall - float(event.get("t", 0.0))
            if etype == "journal.close":
                self.finished = True
            base = self._base_wall if self._base_wall is not None else 0.0
            event["_wall"] = base + float(event.get("t", 0.0))
            events.append(event)
        return events

    def follow(self, poll_interval: float = 0.2,
               timeout: Optional[float] = None) -> Iterator[Dict]:
        """Yield events as they appear, blocking between polls.

        Stops when the run is :attr:`finished`, or when nothing at all
        arrived for ``timeout`` seconds (None = wait forever).
        """
        last_activity = time.monotonic()
        while True:
            batch = self.poll()
            if batch:
                last_activity = time.monotonic()
                yield from batch
            if self.finished:
                return
            if timeout is not None and \
                    time.monotonic() - last_activity >= timeout:
                return
            time.sleep(poll_interval)


# ---------------------------------------------------------------------------
# Progress model
# ---------------------------------------------------------------------------

@dataclass
class PhaseInfo:
    """One pipeline phase (a span) for display."""

    path: str
    name: str
    state: str            # "done" | "active" | "pending"
    t_open: float = 0.0
    duration: Optional[float] = None
    fraction: float = 0.0
    detail: str = ""


@dataclass
class ProgressSnapshot:
    """Point-in-time view of a run's progress."""

    trace_id: str = ""
    flow: str = ""
    phase: str = ""                 # deepest open span path
    phases: List[PhaseInfo] = field(default_factory=list)
    elapsed: float = 0.0
    fraction: float = 0.0
    eta: Optional[float] = None     # seconds remaining; None = unknown
    finished: bool = False
    started: bool = False
    events: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)


class ProgressModel:
    """Fold journal events into a live progress estimate.

    Feed events in arrival order via :meth:`ingest`; call
    :meth:`snapshot` whenever a view is wanted.  The model is tolerant
    by design — unknown event kinds are counted and ignored, and a
    journal from a crashed run still snapshots sensibly.
    """

    def __init__(self):
        self.trace_id = ""
        self.flow = ""
        self.planned: List[str] = []
        self.events = 0
        self.finished = False
        self.started = False
        self._start_wall: Optional[float] = None
        self._last_wall: float = 0.0
        self._phases: Dict[str, PhaseInfo] = {}
        self._open_paths: List[str] = []
        # The current flow's phases: direct children of the span open
        # when the latest ``progress.plan`` arrived.  None until a plan
        # arrives inside a span; every depth-1 span counts then.
        self._flow_root: Optional[str] = None
        self._flow_paths: Optional[List[str]] = None
        self._work: Dict[str, Dict] = {}
        self._metrics: Dict[str, float] = {}

    # -- ingestion ----------------------------------------------------------

    def ingest(self, event: Dict) -> None:
        """Fold one journal event (as produced by a follower or
        :func:`repro.obs.journal.read_journal`) into the model."""
        self.events += 1
        etype = event.get("type", "")
        data = event.get("data") or {}
        wall = event.get("_wall")
        if wall is None:
            wall = float(event.get("t", 0.0))
        self._last_wall = max(self._last_wall, wall)
        if etype == "journal.open":
            if self._start_wall is None:
                self._start_wall = wall
                self.started = True
                self.trace_id = str(data.get("trace_id", ""))
            return
        if etype == "journal.close":
            self.finished = True
            return
        if etype == "progress.plan":
            self.flow = str(data.get("flow", self.flow))
            phases = data.get("phases")
            if isinstance(phases, list):
                self.planned = [str(p) for p in phases]
            if self._open_paths:
                self._flow_root = self._open_paths[-1]
                self._flow_paths = []
            return
        if etype == "progress.work":
            phase = str(data.get("phase", ""))
            if phase:
                self._work[phase] = {
                    "total": int(data.get("total", 0) or 0),
                    "unit": str(data.get("unit", "")),
                    "done": int(data.get("done", 0) or 0),
                }
            return
        if etype == "span.open":
            path = str(data.get("path", ""))
            self._phases[path] = PhaseInfo(
                path=path, name=path.rsplit("/", 1)[-1], state="active",
                t_open=wall)
            self._open_paths.append(path)
            if self._flow_paths is not None \
                    and path.rpartition("/")[0] == self._flow_root:
                self._flow_paths.append(path)
            return
        if etype == "span.close":
            path = str(data.get("path", ""))
            info = self._phases.get(path)
            if info is not None:
                info.state = "done"
                info.fraction = 1.0
                info.duration = data.get("duration")
            if path in self._open_paths:
                self._open_paths.remove(path)
            return
        if etype == "coverage":
            # Coverage phases are dotted ("pipeline.atpg"); work totals
            # key on the bare phase leaf ("atpg").
            phase = str(data.get("phase", ""))
            work = self._work.get(phase) or \
                self._work.get(phase.rsplit(".", 1)[-1])
            if work is not None and "detected" in data:
                work["done"] = int(data["detected"])
            return
        if etype in ("cache.hit", "cache.miss"):
            self._metrics[etype] = self._metrics.get(etype, 0) + 1

    # -- snapshot -----------------------------------------------------------

    @staticmethod
    def _phase_weight(leaf: str) -> float:
        return DEFAULT_PHASE_WEIGHTS.get(leaf, _UNKNOWN_PHASE_WEIGHT)

    def _intra_fraction(self, leaf: str) -> float:
        """Completion fraction inside the active phase: declared work
        totals, else 0 (conservative)."""
        work = self._work.get(leaf)
        if work and work["total"] > 0:
            return min(1.0, work["done"] / work["total"])
        return 0.0

    def snapshot(self, now: Optional[float] = None) -> ProgressSnapshot:
        """Compute the current :class:`ProgressSnapshot`.

        ``now`` is a wall-clock timestamp on the same scale as the
        ingested events' ``_wall`` values; defaults to ``time.time()``
        for live follows, or to the last event's time once the run has
        finished (so post-mortem snapshots don't age).
        """
        if now is None:
            now = self._last_wall if self.finished else time.time()
        start = self._start_wall if self._start_wall is not None else now
        elapsed = max(0.0, (self._last_wall if self.finished else now) - start)

        phases = sorted(self._phases.values(), key=lambda p: p.t_open)
        # Display the pipeline level: roots and their direct children.
        display = [p for p in phases if p.path.count("/") <= 1]
        current = self._open_paths[-1] if self._open_paths else ""

        if self._flow_paths is None:
            flow = [p for p in phases if p.path.count("/") == 1]
        else:
            flow = [self._phases[path] for path in self._flow_paths]
        done_leaves = {p.name for p in flow if p.state == "done"}
        active = {p.name: p for p in flow if p.state == "active"}
        plan = list(self.planned)
        for p in flow:
            if p.name not in plan:
                plan.append(p.name)
        total_w = sum(self._phase_weight(leaf) for leaf in plan)
        fraction = 0.0
        if self.finished:
            fraction = 1.0
        elif total_w > 0:
            done_w = sum(self._phase_weight(leaf) for leaf in plan
                         if leaf in done_leaves)
            active_w = 0.0
            for leaf in plan:
                if leaf in done_leaves or leaf not in active:
                    continue
                intra = self._intra_fraction(leaf)
                active_w += self._phase_weight(leaf) * intra
                active[leaf].fraction = intra
            fraction = min(1.0, (done_w + active_w) / total_w)

        eta: Optional[float] = None
        if self.finished:
            eta = 0.0
        elif fraction > 0.01 and elapsed > 0:
            eta = elapsed * (1.0 - fraction) / fraction

        for leaf, work in self._work.items():
            info = next((p for p in phases if p.name == leaf), None)
            if info is not None and work["total"] > 0:
                info.detail = f"{work['done']}/{work['total']} {work['unit']}"

        top = dict(sorted(self._metrics.items(),
                          key=lambda item: -abs(item[1]))[:6])
        return ProgressSnapshot(
            trace_id=self.trace_id, flow=self.flow, phase=current,
            phases=display, elapsed=elapsed,
            fraction=fraction, eta=eta, finished=self.finished,
            started=self.started, events=self.events, metrics=top)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _bar(fraction: float, width: int = 20) -> str:
    filled = int(round(max(0.0, min(1.0, fraction)) * width))
    return "[" + "#" * filled + "-" * (width - filled) + "]"


def _fmt_seconds(seconds: Optional[float]) -> str:
    if seconds is None:
        return "?"
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.1f}s"


_STATE_MARK = {"done": "+", "active": ">", "pending": "."}


def render_watch(snap: ProgressSnapshot, top_metrics: int = 5) -> str:
    """Render a snapshot as plain multi-line ASCII text."""
    lines: List[str] = []
    if not snap.started:
        return "waiting for journal events..."
    status = "FINISHED" if snap.finished else "RUNNING"
    run = snap.trace_id[:12] if snap.trace_id else "?"
    flow = f" {snap.flow}" if snap.flow else ""
    lines.append(f"run {run}{flow} - {status} - "
                 f"elapsed {_fmt_seconds(snap.elapsed)}")
    lines.append(f"{_bar(snap.fraction)} {snap.fraction * 100:5.1f}%  "
                 f"ETA {_fmt_seconds(snap.eta)}")
    if snap.phase:
        lines.append(f"phase: {snap.phase}")
    if snap.phases:
        lines.append("phases:")
        for info in snap.phases:
            mark = _STATE_MARK.get(info.state, "?")
            indent = "  " * (info.path.count("/") + 1)
            line = f"{indent}{mark} {info.name}"
            if info.state == "done" and info.duration is not None:
                line += f"  {_fmt_seconds(info.duration)}"
            elif info.state == "active" and info.fraction > 0:
                line += f"  {info.fraction * 100:.0f}%"
            if info.detail:
                line += f"  ({info.detail})"
            lines.append(line)
    if snap.metrics:
        shown = list(snap.metrics.items())[:top_metrics]
        lines.append("metrics: " + "  ".join(
            f"{name}={value:g}" for name, value in shown))
    lines.append(f"events: {snap.events}")
    return "\n".join(lines)
