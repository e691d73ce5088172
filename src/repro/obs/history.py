"""Cross-run history: the SQLite-backed run index and fleet analytics.

Single-run telemetry (metrics, spans, journals) answers "what did this
run do"; this module answers "what do runs of this circuit *usually*
do".  Every flow that opts in — ``FlowConfig(run_index=)``, the
``REPRO_RUN_INDEX`` environment variable, or ``--run-index`` on the CLI
— appends one compact, versioned **run record** to a shared SQLite
index:

* identity — circuit name, the canonical circuit fingerprint and the
  run config fingerprint from :mod:`repro.cache.fingerprint` (the
  result cache's ``flow`` key: two runs with the same fingerprints are
  expected to produce bit-identical deterministic counters);
* outcome — the session's metrics artifact
  (:func:`~repro.obs.report.metrics_artifact`): counters, gauges,
  histograms and the per-phase span aggregate;
* provenance — platform, python and git rev,
  wall-clock seconds and a creation timestamp.

The index follows the same durability contract as :mod:`repro.cache`:
**corruption-tolerant and never a point of failure**.  A missing,
truncated or garbage database file is quarantined (renamed aside) and
re-created as a clean empty index; any append or query error is
swallowed, counted (``history.errors``) and journaled.  SQLite's own
file locking makes concurrent appends from multiple processes safe —
each record is one short transaction, writers retry behind a busy
timeout, and readers see either the previous or the new state.
``sqlite3`` and ``subprocess`` are imported only when a record is
written or read, so a flow with no run index loads neither.

Fleet analytics on top of the index:

* any record converts to a metrics artifact via
  :func:`record_to_artifact`, so ``repro-atpg diff-metrics runs:A
  runs:B`` diffs two index entries with the whole diff/threshold
  toolbox from :mod:`repro.obs.diff`;
* :func:`compute_trend` computes per-metric **median / MAD** statistics
  over the last N same-fingerprint runs and flags two kinds of anomaly:
  **deterministic drift** (a counter that must be bit-identical across
  same-fingerprint runs — simulated cycles, attempt counts, coverage —
  took more than one value) and **wall-clock outliers** (a run whose
  duration's modified z-score exceeds the threshold).  Drift fails a
  ``runs trend --assert`` gate; time outliers are flagged but do not —
  wall-clock noise must never fail a deterministic gate.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..cache.fingerprint import circuit_fingerprint, run_config_fingerprint
from . import context as obs

#: Versioned record schema; bump on breaking changes to the record
#: payload so old indexes self-identify instead of decoding garbage.
RUN_RECORD_SCHEMA = "repro.obs.run/1"

#: Environment variable naming the run index database;
#: ``FlowConfig.run_index`` takes precedence when set.
RUN_INDEX_ENV = "REPRO_RUN_INDEX"

#: Database used by ``--run-index`` with no explicit path.
DEFAULT_RUN_INDEX = ".repro-runs.sqlite"

#: Counter patterns that must be **bit-identical** across runs with the
#: same (circuit, config) fingerprints — the default deterministic gate
#: set for ``runs trend --assert``.  Cache-warmth
#: (``cache.*``) counters are excluded: they legitimately vary run to
#: run without the results changing.
DETERMINISTIC_GATES: Tuple[str, ...] = (
    "faultsim.cycles",
    "faultsim.runs",
    "faultsim.faults_dropped",
    "faultsim.session.*",
    "atpg.*",
    "compaction.*",
    "pipeline.*coverage_percent",
)

#: Flattened-metric patterns treated as wall-clock (outlier detection,
#: never drift gating).
WALL_PATTERNS: Tuple[str, ...] = ("wall_seconds", "span:*")

#: Modified z-score above which a wall-clock sample is an outlier
#: (Iglewicz & Hoaglin's conventional 3.5).
DEFAULT_OUTLIER_Z = 3.5


def resolve_run_index(path: Union[str, Path, None] = None
                      ) -> Optional[Path]:
    """The effective run-index database: the explicit argument, else
    the ``REPRO_RUN_INDEX`` environment variable, else ``None`` (run
    history off)."""
    if path:
        return Path(path)
    env = os.environ.get(RUN_INDEX_ENV, "").strip()
    if env:
        return Path(env)
    return None


# ---------------------------------------------------------------------------
# Run records
# ---------------------------------------------------------------------------

def _git_rev() -> str:
    """Abbreviated git revision of the working tree ("" when unknown)."""
    import subprocess

    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.SubprocessError):
        return ""
    return out.stdout.strip() if out.returncode == 0 else ""


def build_run_record(
    *,
    circuit_name: str,
    circuit_fp: str,
    config_fp: str,
    flow: str,
    wall_seconds: float,
    telemetry=None,
) -> Dict:
    """Assemble one versioned run record (a plain JSON-able dict).

    ``telemetry`` is the active :class:`~repro.obs.context.Telemetry`
    session (or ``None`` — records from untraced runs still carry
    identity, provenance and wall-clock, just no metrics).  The
    metric payload is exactly :func:`~repro.obs.report.metrics_artifact`'s
    ``counters``/``gauges``/``histograms``/``spans``."""
    import platform

    from .report import metrics_artifact

    artifact = metrics_artifact(telemetry) if telemetry is not None else {}
    return {
        "schema": RUN_RECORD_SCHEMA,
        "created": time.time(),
        "circuit": circuit_name,
        "circuit_fp": circuit_fp,
        "config_fp": config_fp,
        "flow": flow,
        "wall_seconds": round(wall_seconds, 6),
        "git_rev": _git_rev(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "counters": artifact.get("counters", {}),
        "gauges": artifact.get("gauges", {}),
        "histograms": artifact.get("histograms", {}),
        "spans": artifact.get("spans", []),
    }


def record_to_artifact(record: Dict) -> Dict:
    """Convert a run record into a ``repro.obs.metrics/1`` artifact so
    the whole diff/flatten/threshold toolbox (and ``diff-metrics``)
    applies to index entries unchanged.  ``wall_seconds`` is exposed as
    a gauge so trend/diff see it alongside the spans."""
    from .report import METRICS_SCHEMA

    gauges = dict(record.get("gauges", {}))
    gauges.setdefault("wall_seconds", record.get("wall_seconds", 0.0))
    return {
        "schema": METRICS_SCHEMA,
        "meta": {
            "circuit": record.get("circuit", ""),
            "flow": record.get("flow", ""),
            "python": record.get("python", ""),
            "platform": record.get("platform", ""),
            "git_rev": record.get("git_rev", ""),
        },
        "counters": dict(record.get("counters", {})),
        "gauges": gauges,
        "histograms": dict(record.get("histograms", {})),
        "spans": list(record.get("spans", [])),
    }


# ---------------------------------------------------------------------------
# The SQLite index
# ---------------------------------------------------------------------------

#: Indexes created before the ``backend``/``jobs`` columns were dropped
#: still carry them; both have defaults, and every insert names its
#: columns, so old files keep taking appends and answering queries.
_TABLE_SQL = """
CREATE TABLE IF NOT EXISTS runs (
    id          INTEGER PRIMARY KEY AUTOINCREMENT,
    created     REAL NOT NULL,
    circuit     TEXT NOT NULL,
    circuit_fp  TEXT NOT NULL,
    config_fp   TEXT NOT NULL,
    flow        TEXT NOT NULL,
    git_rev     TEXT NOT NULL DEFAULT '',
    wall_seconds REAL NOT NULL DEFAULT 0,
    record      TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS runs_by_fp
    ON runs (circuit_fp, config_fp, id);
CREATE INDEX IF NOT EXISTS runs_by_circuit ON runs (circuit, id);
"""


@dataclass(frozen=True)
class RunEntry:
    """One indexed run, as returned by the query methods."""

    id: int
    created: float
    circuit: str
    circuit_fp: str
    config_fp: str
    flow: str
    git_rev: str
    wall_seconds: float
    record: Dict = field(repr=False, default_factory=dict)


class RunIndex:
    """SQLite-backed append-mostly index of run records.

    Contract (same as :class:`repro.cache.ResultStore`): **never a
    point of failure**.  Every method catches database and filesystem
    errors, counts them (``history.errors``) and degrades — appends are
    dropped, queries return empty.  A corrupt database file is
    quarantined to ``<path>.corrupt`` and a fresh index re-created in
    its place (a clean miss, not an exception).

    Concurrency: single-writer-per-record / many-reader.  SQLite's file
    locking serializes writers (each append is one short transaction
    behind a 10 s busy timeout); readers never block appends for long
    and always see a consistent snapshot.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)

    # -- connection plumbing -------------------------------------------------

    def _run(self, op: str, work, default=None):
        """``work(conn)`` in one transaction on a connection with the
        schema ensured; ``default`` when the index is unusable even
        after quarantine, or when ``op`` fails."""
        import sqlite3

        for attempt in (0, 1):
            conn = None
            try:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                conn = sqlite3.connect(str(self.path), timeout=10.0)
                conn.executescript(_TABLE_SQL)
                break
            except (sqlite3.Error, OSError):
                if conn is not None:
                    conn.close()
                if attempt == 0 and self._quarantine():
                    continue
                self._count_error("connect")
                return default
        try:
            with conn:
                return work(conn)
        except (sqlite3.Error, ValueError, TypeError):
            self._count_error(op)
            return default
        finally:
            conn.close()

    def _quarantine(self) -> bool:
        """Move a damaged database aside so a clean one can replace it;
        True when a retry makes sense."""
        try:
            if self.path.exists():
                os.replace(self.path, self.path.with_name(
                    self.path.name + ".corrupt"))
                obs.incr("history.recreated")
                obs.event("history.recreated", path=str(self.path))
            return True
        except OSError:
            return False

    @staticmethod
    def _count_error(op: str) -> None:
        obs.incr("history.errors")
        obs.event("history.error", op=op)

    # -- writes ------------------------------------------------------------------

    def append(self, record: Dict) -> Optional[int]:
        """Insert one run record; returns its id, or ``None`` when the
        write failed (never raises)."""
        run_id = self._run("append", lambda conn: int(conn.execute(
            "INSERT INTO runs (created, circuit, circuit_fp, "
            "config_fp, flow, git_rev, "
            "wall_seconds, record) VALUES (?,?,?,?,?,?,?,?)",
            (
                float(record.get("created", time.time())),
                str(record.get("circuit", "")),
                str(record.get("circuit_fp", "")),
                str(record.get("config_fp", "")),
                str(record.get("flow", "")),
                str(record.get("git_rev", "")),
                float(record.get("wall_seconds", 0.0)),
                json.dumps(record, separators=(",", ":"), sort_keys=True),
            ),
        ).lastrowid))
        if run_id is None:
            return None
        obs.incr("history.appends")
        obs.event("history.append", id=run_id,
                  circuit=record.get("circuit", ""),
                  flow=record.get("flow", ""))
        return run_id

    # -- queries -----------------------------------------------------------------

    _COLS = ("id, created, circuit, circuit_fp, config_fp, flow, "
             "git_rev, wall_seconds, record")

    @staticmethod
    def _entry(row) -> Optional[RunEntry]:
        try:
            record = json.loads(row[8])
            if not isinstance(record, dict):
                record = {}
        except (ValueError, TypeError):
            record = {}
        try:
            return RunEntry(
                id=int(row[0]), created=float(row[1]), circuit=str(row[2]),
                circuit_fp=str(row[3]), config_fp=str(row[4]),
                flow=str(row[5]), git_rev=str(row[6]),
                wall_seconds=float(row[7]),
                record=record,
            )
        except (ValueError, TypeError):
            return None

    def _query(self, sql: str, params: tuple = ()) -> List[RunEntry]:
        rows = self._run(
            "query", lambda conn: conn.execute(sql, params).fetchall(), [])
        return [e for e in (self._entry(row) for row in rows)
                if e is not None]

    def get(self, run_id: int) -> Optional[RunEntry]:
        """One entry by id, or ``None``."""
        found = self._query(
            f"SELECT {self._COLS} FROM runs WHERE id = ?", (run_id,))
        return found[0] if found else None

    def latest(self, circuit: Optional[str] = None) -> Optional[RunEntry]:
        """The newest entry (optionally restricted to a circuit name)."""
        if circuit is not None:
            found = self._query(
                f"SELECT {self._COLS} FROM runs WHERE circuit = ? "
                f"ORDER BY id DESC LIMIT 1", (circuit,))
        else:
            found = self._query(
                f"SELECT {self._COLS} FROM runs ORDER BY id DESC LIMIT 1")
        return found[0] if found else None

    def list(self, limit: int = 50, circuit: Optional[str] = None,
             ) -> List[RunEntry]:
        """Newest-first entries, optionally filtered by circuit name."""
        if circuit is not None:
            return self._query(
                f"SELECT {self._COLS} FROM runs WHERE circuit = ? "
                f"ORDER BY id DESC LIMIT ?", (circuit, limit))
        return self._query(
            f"SELECT {self._COLS} FROM runs ORDER BY id DESC LIMIT ?",
            (limit,))

    def same_fingerprint(self, circuit_fp: str, config_fp: str,
                         limit: int = 20) -> List[RunEntry]:
        """Newest-first entries sharing a (circuit, config) fingerprint
        pair — the trend window."""
        return self._query(
            f"SELECT {self._COLS} FROM runs "
            f"WHERE circuit_fp = ? AND config_fp = ? "
            f"ORDER BY id DESC LIMIT ?",
            (circuit_fp, config_fp, limit))

    def count(self) -> int:
        return self._run("count", lambda conn: int(
            conn.execute("SELECT COUNT(*) FROM runs").fetchone()[0]), 0)

    # -- maintenance ------------------------------------------------------------

    def gc(self, keep: int) -> int:
        """Delete all but the newest ``keep`` records of every
        (circuit, config) fingerprint group; returns the number deleted.
        ``keep`` is clamped to >= 1 — the newest same-fingerprint record
        is never deleted."""
        keep = max(1, int(keep))
        deleted = self._run("gc", lambda conn: conn.execute(
            "DELETE FROM runs WHERE id NOT IN ("
            "  SELECT id FROM ("
            "    SELECT id, ROW_NUMBER() OVER ("
            "      PARTITION BY circuit_fp, config_fp "
            "      ORDER BY id DESC) AS rank FROM runs"
            "  ) WHERE rank <= ?)",
            (keep,),
        ).rowcount)
        if deleted is None:
            return 0
        obs.incr("history.gc_deleted", max(0, deleted))
        return max(0, deleted)


# ---------------------------------------------------------------------------
# Recording hook (called from the pipeline)
# ---------------------------------------------------------------------------

def record_flow_run(cfg, circuit, flow: str,
                    wall_seconds: float) -> Optional[int]:
    """Append a run record for one finished flow, when run history is
    enabled; returns the record id (``None`` when history is off or the
    append failed).  Called by the pipeline tails — like every history
    operation it must never fail the run."""
    try:
        path = resolve_run_index(getattr(cfg, "run_index", None))
        if path is None:
            return None
        record = build_run_record(
            circuit_name=circuit.name,
            circuit_fp=circuit_fingerprint(circuit),
            config_fp=run_config_fingerprint(cfg, flow=flow),
            flow=flow,
            wall_seconds=wall_seconds,
            telemetry=obs.active(),
        )
        return RunIndex(path).append(record)
    except Exception:
        # History is strictly best-effort; a broken record build must
        # not take the flow down with it.
        RunIndex._count_error("record")
        return None


# ---------------------------------------------------------------------------
# Fleet analytics: trend
# ---------------------------------------------------------------------------

def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def robust_stats(values: Sequence[float]) -> Tuple[float, float]:
    """(median, MAD) of a sample."""
    med = _median(values)
    mad = _median([abs(v - med) for v in values])
    return med, mad


def modified_z(value: float, median: float, mad: float) -> float:
    """Iglewicz-Hoaglin modified z-score with the scale floored at half
    the median and at 2 ms, so a near-zero MAD does not turn jitter (a
    cold first run at twice the median, a few ms on a sub-ms span) into
    an outlier."""
    scale = max(1.4826 * mad, 0.5 * abs(median), 0.002)
    return abs(value - median) / scale


@dataclass(frozen=True)
class TrendRow:
    """Per-metric trend statistics over the analysis window."""

    name: str
    kind: str            # "deterministic" | "wall" | "other"
    n: int
    median: float
    mad: float
    latest: float
    z: float
    #: "ok" | "drift" (deterministic disagreement) | "outlier" (wall z)
    flag: str

    @property
    def ok(self) -> bool:
        return self.flag == "ok"


@dataclass(frozen=True)
class TrendReport:
    """Outcome of one trend analysis over a same-fingerprint window."""

    circuit: str
    circuit_fp: str
    config_fp: str
    window: int
    rows: List[TrendRow]
    #: ids of window entries whose wall_seconds is an outlier.
    outlier_ids: List[int]

    @property
    def drift(self) -> List[TrendRow]:
        return [row for row in self.rows if row.flag == "drift"]

    @property
    def outliers(self) -> List[TrendRow]:
        return [row for row in self.rows if row.flag == "outlier"]

    @property
    def passed(self) -> bool:
        """The assertable gate: no deterministic drift.  Wall-clock
        outliers are flagged, never fatal."""
        return not self.drift


def compute_trend(entries: Sequence[RunEntry],
                  gates: Sequence[str] = DETERMINISTIC_GATES,
                  z_threshold: Optional[float] = None) -> TrendReport:
    """Median/MAD trend statistics over a same-fingerprint window.

    ``entries`` is newest-first (as the index returns them).  For every
    flattened metric present in at least two entries: deterministic
    metrics (matching ``gates``) flag **drift** when they took more
    than one value anywhere in the window; wall-clock metrics flag
    **outlier** when any sample's modified z-score against the window
    median exceeds ``z_threshold``.  Everything else is informational.
    """
    from .diff import flatten_metrics

    if z_threshold is None:
        z_threshold = DEFAULT_OUTLIER_Z
    ordered = list(entries)[::-1]  # oldest-first for per-run series
    flats = [flatten_metrics(record_to_artifact(e.record))
             for e in ordered]
    names = sorted({name for flat in flats for name in flat})
    rows: List[TrendRow] = []
    outlier_ids: List[int] = []
    for name in names:
        series = [(entry, flat[name])
                  for entry, flat in zip(ordered, flats) if name in flat]
        values = [v for _entry, v in series]
        if len(values) < 2:
            continue
        med, mad = robust_stats(values)
        latest = values[-1]
        deterministic = any(fnmatchcase(name, p) for p in gates)
        wall = any(fnmatchcase(name, p) for p in WALL_PATTERNS)
        flag = "ok"
        z = modified_z(latest, med, mad)
        if deterministic:
            kind = "deterministic"
            if len(set(values)) > 1:
                flag = "drift"
        elif wall:
            kind = "wall"
            worst = max(modified_z(v, med, mad) for v in values)
            z = worst
            if worst > z_threshold:
                flag = "outlier"
                if name == "wall_seconds":
                    outlier_ids.extend(
                        entry.id for entry, v in series
                        if modified_z(v, med, mad) > z_threshold)
        else:
            kind = "other"
        rows.append(TrendRow(name=name, kind=kind, n=len(values),
                             median=med, mad=mad, latest=latest,
                             z=round(z, 3), flag=flag))
    head = entries[0] if entries else None
    return TrendReport(
        circuit=head.circuit if head else "",
        circuit_fp=head.circuit_fp if head else "",
        config_fp=head.config_fp if head else "",
        window=len(entries),
        rows=rows,
        outlier_ids=sorted(set(outlier_ids)),
    )


def render_trend(report: TrendReport, top: Optional[int] = None) -> str:
    """Human-readable trend table: anomalies first, then the largest
    wall-clock movers; deterministic all-agree rows are summarized, not
    listed."""
    from ..reporting.tables import format_table

    det_ok = sum(1 for r in report.rows
                 if r.kind == "deterministic" and r.flag == "ok")
    anomalies = [r for r in report.rows if r.flag != "ok"]
    walls = sorted((r for r in report.rows if r.kind == "wall"),
                   key=lambda r: -r.z)
    shown = anomalies + [r for r in walls if r.flag == "ok"]
    if top is not None:
        shown = shown[:top]
    lines = [
        f"trend over last {report.window} run(s) of "
        f"{report.circuit or '?'} "
        f"(fingerprint {report.circuit_fp[:12]}/{report.config_fp[:12]})",
        f"deterministic counters: {det_ok} stable, "
        f"{len(report.drift)} drifting",
        f"wall-clock outliers: {len(report.outliers)}"
        + (f" (record ids {report.outlier_ids})"
           if report.outlier_ids else ""),
    ]
    if shown:
        lines.append(format_table(
            ["metric", "kind", "n", "median", "MAD", "latest", "z",
             "flag"],
            [[r.name, r.kind, r.n, f"{r.median:g}", f"{r.mad:g}",
              f"{r.latest:g}", f"{r.z:g}", r.flag] for r in shown],
            title="trend detail",
        ))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# runs:<id> reference resolution (diff-metrics)
# ---------------------------------------------------------------------------

RUNS_REF_PREFIX = "runs:"


def is_runs_ref(spec: str) -> bool:
    """True when ``spec`` is a ``runs:<id>`` / ``runs:latest`` index
    reference rather than a filesystem path."""
    return isinstance(spec, str) and spec.startswith(RUNS_REF_PREFIX)


def load_runs_ref(spec: str, index_path: Union[str, Path, None] = None
                  ) -> Dict:
    """Resolve a ``runs:<id>`` (or ``runs:latest``) reference to a
    metrics artifact.  Raises ``ValueError`` with a precise message on
    a bad reference — callers surface it exactly like a bad file path.
    """
    path = resolve_run_index(index_path)
    if path is None:
        raise ValueError(
            f"{spec}: no run index (pass --run-index or set "
            f"${RUN_INDEX_ENV})")
    index = RunIndex(path)
    ref = spec[len(RUNS_REF_PREFIX):]
    if ref == "latest":
        entry = index.latest()
        if entry is None:
            raise ValueError(f"{spec}: run index {path} is empty")
        return record_to_artifact(entry.record)
    try:
        run_id = int(ref)
    except ValueError:
        raise ValueError(
            f"{spec}: expected runs:<id> or runs:latest")
    entry = index.get(run_id)
    if entry is None:
        raise ValueError(f"{spec}: no record {run_id} in {path}")
    return record_to_artifact(entry.record)
