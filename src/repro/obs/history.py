"""Cross-run history: the SQLite-backed run index and fleet analytics.

Single-run telemetry (metrics, spans, journals) answers "what did this
run do"; this module answers "what do runs of this circuit *usually*
do".  Every flow that opts in — ``FlowConfig(run_index=)``, the
``REPRO_RUN_INDEX`` environment variable, or ``--run-index`` on the CLI
— appends one compact, versioned **run record** to a shared SQLite
index:

* identity — circuit name, the canonical circuit fingerprint from
  :mod:`repro.cache.fingerprint`, and a **run config fingerprint** over
  :class:`~repro.core.config.FlowConfig` fields that change result
  bits (the deployment settings ``jobs``, ``cache_dir`` and
  ``run_index`` are excluded, exactly like the result cache's stage
  keys: two runs with the same fingerprints are expected to produce
  bit-identical deterministic counters);
* outcome — the final metrics snapshot (counters / gauges /
  histograms), the per-phase span aggregate, and a journal summary
  (phases, cache hit rates, coverage / cycles);
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

Fleet analytics on top of the index:

* :func:`compare_records` generalizes ``repro-atpg diff-metrics`` to
  any two index entries (each record converts to a metrics artifact via
  :func:`record_to_artifact`, so the whole diff/threshold toolbox from
  :mod:`repro.obs.diff` applies unchanged);
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
import math
import os
import sqlite3
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from . import context as obs

#: Versioned record schema; bump on breaking changes to the record
#: payload so old indexes self-identify instead of decoding garbage.
RUN_RECORD_SCHEMA = "repro.obs.run/1"

#: Environment variable naming the run index database;
#: ``FlowConfig.run_index`` takes precedence when set.
RUN_INDEX_ENV = "REPRO_RUN_INDEX"

#: Database used by ``--run-index`` with no explicit path.
DEFAULT_RUN_INDEX = ".repro-runs.sqlite"

#: Dormant test hook: seconds to sleep inside the flow stopwatch, so
#: tests (and the CI acceptance scenario) can force a wall-clock
#: outlier without touching any deterministic counter.
TEST_SLEEP_ENV = "REPRO_TEST_SLEEP"

#: Counter patterns that must be **bit-identical** across runs with the
#: same (circuit, config) fingerprints — the default deterministic gate
#: set for ``runs trend --assert`` / ``runs compare``.  Cache-warmth
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


def maybe_test_sleep() -> None:
    """Sleep for ``$REPRO_TEST_SLEEP`` seconds (dormant unless set).

    Exists so tests and CI can inject a wall-clock-only slowdown into a
    real flow — the trend gate must flag the outlier while every
    deterministic counter stays bit-identical."""
    raw = os.environ.get(TEST_SLEEP_ENV, "").strip()
    if not raw:
        return
    try:
        seconds = float(raw)
    except ValueError:
        return
    if seconds > 0:
        time.sleep(seconds)


# ---------------------------------------------------------------------------
# Run records
# ---------------------------------------------------------------------------

def run_config_fingerprint(cfg, flow: str = "generation",
                           scan_fp: str = "") -> str:
    """Fingerprint of the semantically relevant flow configuration.

    Covers every :class:`~repro.core.config.FlowConfig` field except
    the deployment settings ``jobs``, ``cache_dir`` and ``run_index``,
    which cannot change the bits of a result, so records group by
    *what* was computed, not where it was stored.  The flow name is
    part of the key: a generation and a translation run of the same
    config compute different things and must not land in one trend
    group."""
    from dataclasses import asdict

    from ..cache.fingerprint import config_fingerprint

    return config_fingerprint(
        "run",
        flow=flow,
        seed=cfg.seed,
        num_chains=cfg.num_chains,
        compact=cfg.compact,
        classify_redundant=cfg.classify_redundant,
        use_scan_knowledge=cfg.use_scan_knowledge,
        use_justification=cfg.use_justification,
        redundancy_backtrack_limit=cfg.redundancy_backtrack_limit,
        max_omission_passes=cfg.max_omission_passes,
        atpg=asdict(cfg.atpg) if cfg.atpg is not None else None,
        baseline=asdict(cfg.baseline) if cfg.baseline is not None else None,
        scan=scan_fp,
    )


def _git_rev() -> str:
    """Abbreviated git revision of the working tree ("" when unknown)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.SubprocessError):
        return ""
    return out.stdout.strip() if out.returncode == 0 else ""


def _journal_summary(counters: Dict, gauges: Dict,
                     spans: List[Dict]) -> Dict:
    """The compact journal summary stored in each record: per-phase
    seconds, cache hit rates, cycles — all derived from the session's
    own metrics, no journal file parsing needed."""
    phases = {
        span["path"]: span["total_seconds"]
        for span in spans if span.get("depth", 0) <= 1
    }
    cache_hits = counters.get("cache.hit", 0)
    cache_misses = counters.get("cache.miss", 0)
    lookups = cache_hits + cache_misses
    summary: Dict = {
        "phases": phases,
        "cache": {
            "hits": cache_hits,
            "misses": cache_misses,
            "hit_rate": round(100.0 * cache_hits / lookups, 2)
            if lookups else None,
        },
        "cycles": counters.get("faultsim.cycles", 0),
    }
    coverage = {
        name: value for name, value in gauges.items()
        if name.endswith("coverage_percent")
    }
    if coverage:
        summary["coverage"] = coverage
    return summary


def build_run_record(
    *,
    circuit_name: str,
    circuit_fp: str,
    config_fp: str,
    flow: str,
    wall_seconds: float,
    backend: str = "",
    telemetry=None,
    extra_meta: Optional[Dict] = None,
) -> Dict:
    """Assemble one versioned run record (a plain JSON-able dict).

    ``telemetry`` is the active :class:`~repro.obs.context.Telemetry`
    session (or ``None`` — records from untraced runs still carry
    identity, provenance and wall-clock, just no metrics)."""
    counters: Dict = {}
    gauges: Dict = {}
    histograms: Dict = {}
    spans: List[Dict] = []
    if telemetry is not None:
        snapshot = telemetry.metrics.snapshot()
        counters = snapshot["counters"]
        gauges = snapshot["gauges"]
        histograms = snapshot["histograms"]
        spans = [
            {
                "path": path,
                "count": entry["count"],
                "total_seconds": round(entry["total_seconds"], 6),
                "depth": entry["depth"],
            }
            for path, entry in telemetry.spans.aggregate().items()
        ]
    record = {
        "schema": RUN_RECORD_SCHEMA,
        "created": time.time(),
        "circuit": circuit_name,
        "circuit_fp": circuit_fp,
        "config_fp": config_fp,
        "flow": flow,
        "backend": backend,
        "wall_seconds": round(wall_seconds, 6),
        "git_rev": _git_rev(),
        "python": sys.version.split()[0],
        "platform": _platform_tag(),
        "counters": counters,
        "gauges": gauges,
        "histograms": histograms,
        "spans": spans,
        "journal": _journal_summary(counters, gauges, spans),
    }
    if extra_meta:
        record["meta"] = dict(extra_meta)
    return record


def _platform_tag() -> str:
    import platform

    return platform.platform()


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
            "backend": record.get("backend", ""),
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

#: ``jobs`` is a legacy column: flows run serial, so new records leave
#: it at its default of 1.
_TABLE_SQL = """
CREATE TABLE IF NOT EXISTS runs (
    id          INTEGER PRIMARY KEY AUTOINCREMENT,
    created     REAL NOT NULL,
    circuit     TEXT NOT NULL,
    circuit_fp  TEXT NOT NULL,
    config_fp   TEXT NOT NULL,
    flow        TEXT NOT NULL,
    backend     TEXT NOT NULL DEFAULT '',
    jobs        INTEGER NOT NULL DEFAULT 1,
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
    backend: str
    git_rev: str
    wall_seconds: float
    record: Dict = field(repr=False, default_factory=dict)

    @property
    def fingerprint(self) -> Tuple[str, str]:
        """The grouping key trend statistics aggregate over."""
        return (self.circuit_fp, self.config_fp)


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

    def _connect(self) -> Optional[sqlite3.Connection]:
        """A connection with the schema ensured, or ``None`` when the
        index is unusable even after quarantine."""
        for attempt in (0, 1):
            try:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                conn = sqlite3.connect(str(self.path), timeout=10.0)
                conn.executescript(_TABLE_SQL)
                return conn
            except (sqlite3.Error, OSError):
                try:
                    conn.close()  # type: ignore[possibly-undefined]
                except Exception:
                    pass
                if attempt == 0 and self._quarantine():
                    continue
                self._count_error("connect")
                return None
        return None

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
        conn = self._connect()
        if conn is None:
            return None
        try:
            with conn:
                cursor = conn.execute(
                    "INSERT INTO runs (created, circuit, circuit_fp, "
                    "config_fp, flow, backend, git_rev, "
                    "wall_seconds, record) VALUES (?,?,?,?,?,?,?,?,?)",
                    (
                        float(record.get("created", time.time())),
                        str(record.get("circuit", "")),
                        str(record.get("circuit_fp", "")),
                        str(record.get("config_fp", "")),
                        str(record.get("flow", "")),
                        str(record.get("backend", "")),
                        str(record.get("git_rev", "")),
                        float(record.get("wall_seconds", 0.0)),
                        json.dumps(record, separators=(",", ":"),
                                   sort_keys=True),
                    ),
                )
            run_id = int(cursor.lastrowid)
        except (sqlite3.Error, ValueError, TypeError):
            self._count_error("append")
            return None
        finally:
            conn.close()
        obs.incr("history.appends")
        obs.event("history.append", id=run_id,
                  circuit=record.get("circuit", ""),
                  flow=record.get("flow", ""))
        return run_id

    # -- queries -----------------------------------------------------------------

    _COLS = ("id, created, circuit, circuit_fp, config_fp, flow, "
             "backend, git_rev, wall_seconds, record")

    @staticmethod
    def _entry(row) -> Optional[RunEntry]:
        try:
            record = json.loads(row[9])
            if not isinstance(record, dict):
                record = {}
        except (ValueError, TypeError):
            record = {}
        try:
            return RunEntry(
                id=int(row[0]), created=float(row[1]), circuit=str(row[2]),
                circuit_fp=str(row[3]), config_fp=str(row[4]),
                flow=str(row[5]), backend=str(row[6]),
                git_rev=str(row[7]), wall_seconds=float(row[8]),
                record=record,
            )
        except (ValueError, TypeError):
            return None

    def _query(self, sql: str, params: tuple = ()) -> List[RunEntry]:
        conn = self._connect()
        if conn is None:
            return []
        try:
            rows = conn.execute(sql, params).fetchall()
        except sqlite3.Error:
            self._count_error("query")
            return []
        finally:
            conn.close()
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
        conn = self._connect()
        if conn is None:
            return 0
        try:
            return int(conn.execute("SELECT COUNT(*) FROM runs")
                       .fetchone()[0])
        except sqlite3.Error:
            self._count_error("count")
            return 0
        finally:
            conn.close()

    # -- maintenance ------------------------------------------------------------

    def gc(self, keep: int) -> int:
        """Delete all but the newest ``keep`` records of every
        (circuit, config) fingerprint group; returns the number deleted.
        ``keep`` is clamped to >= 1 — the newest same-fingerprint record
        is never deleted."""
        keep = max(1, int(keep))
        conn = self._connect()
        if conn is None:
            return 0
        try:
            with conn:
                cursor = conn.execute(
                    "DELETE FROM runs WHERE id NOT IN ("
                    "  SELECT id FROM ("
                    "    SELECT id, ROW_NUMBER() OVER ("
                    "      PARTITION BY circuit_fp, config_fp "
                    "      ORDER BY id DESC) AS rank FROM runs"
                    "  ) WHERE rank <= ?)",
                    (keep,),
                )
                deleted = cursor.rowcount
        except sqlite3.Error:
            self._count_error("gc")
            return 0
        finally:
            conn.close()
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
        from ..cache.fingerprint import circuit_fingerprint

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
# Fleet analytics: compare and trend
# ---------------------------------------------------------------------------

def compare_records(old: Dict, new: Dict):
    """Diff rows between two run records (delegates to
    :func:`repro.obs.diff.diff_metrics` over their artifact forms)."""
    from .diff import diff_metrics

    return diff_metrics(record_to_artifact(old), record_to_artifact(new))


def deterministic_drift(rows, gates: Sequence[str] = DETERMINISTIC_GATES):
    """Diff rows violating the zero-drift expectation: a metric
    matching a deterministic gate pattern whose value changed *in
    either direction* (same-fingerprint runs must agree exactly)."""
    drifted = []
    for row in rows:
        if row.old is None or row.new is None:
            continue
        if row.old == row.new:
            continue
        if any(fnmatchcase(row.name, pattern) for pattern in gates):
            drifted.append(row)
    return drifted


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
    """Iglewicz-Hoaglin modified z-score with a floor on the scale so
    a near-zero MAD (wall-clock samples that happened to agree) does
    not turn harmless jitter into infinite scores: deviations smaller
    than 5% of the median never flag."""
    scale = max(1.4826 * mad, 0.05 * abs(median), 1e-9)
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

    det_ok = sum(1 for r in rows_of_kind(report, "deterministic")
                 if r.flag == "ok")
    anomalies = [r for r in report.rows if r.flag != "ok"]
    walls = sorted(rows_of_kind(report, "wall"),
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


def rows_of_kind(report: TrendReport, kind: str) -> List[TrendRow]:
    return [row for row in report.rows if row.kind == kind]


# ---------------------------------------------------------------------------
# runs:<id> reference resolution (diff-metrics / metrics-export)
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
