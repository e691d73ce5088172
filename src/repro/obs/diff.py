"""Cross-run regression diffing of ``--metrics-out`` artifacts.

Two metrics artifacts (see :mod:`repro.obs.report`) are flattened to
``name -> value`` maps — counters and gauges under their own names,
histograms as ``<name>.count`` / ``<name>.mean``, spans as
``span:<path>`` (total seconds) — and compared as a sorted delta table.
Configurable thresholds (shell-style name patterns, each with a maximum
allowed relative increase) turn the diff into a CI gate:
``repro-atpg diff-metrics BENCH_table4.json fresh.json --threshold
'faultsim.cycles=20'`` exits non-zero when the simulated-cycle count
regressed by more than 20%; a ``0`` threshold demands exact equality.
This is how the committed ``BENCH_*.json``
baselines start the benchmark trajectory: every PR regenerates the
artifact and diffs it against the committed one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..reporting.tables import format_table
from .report import METRICS_SCHEMA


def load_metrics(path: Union[str, Path]) -> Dict:
    """Read and schema-check one metrics artifact."""
    path = Path(path)
    try:
        artifact = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not a JSON metrics artifact ({exc})")
    schema = artifact.get("schema") if isinstance(artifact, dict) else None
    if schema != METRICS_SCHEMA:
        raise ValueError(
            f"{path}: schema {schema!r} is not {METRICS_SCHEMA!r}")
    return artifact


def flatten_metrics(artifact: Dict) -> Dict[str, float]:
    """Flatten one artifact into a single comparable ``name -> value``
    map (see module docstring for the key conventions)."""
    flat: Dict[str, float] = {}
    flat.update(artifact.get("counters", {}))
    flat.update(artifact.get("gauges", {}))
    for name, hist in artifact.get("histograms", {}).items():
        flat[f"{name}.count"] = hist.get("count", 0)
        if hist.get("mean") is not None:
            flat[f"{name}.mean"] = hist["mean"]
    for span in artifact.get("spans", ()):
        flat[f"span:{span['path']}"] = span["total_seconds"]
    return flat


@dataclass(frozen=True)
class DiffRow:
    """One metric's old/new comparison.

    ``rel`` is the relative change (``(new-old)/old``); ``None`` when
    the metric is absent from either artifact, and ``inf`` when it went
    from exactly 0 to nonzero.
    """

    name: str
    old: Optional[float]
    new: Optional[float]

    @property
    def delta(self) -> float:
        return (self.new or 0.0) - (self.old or 0.0)

    @property
    def rel(self) -> Optional[float]:
        if self.old is None or self.new is None:
            return None
        if self.old == 0.0:
            return float("inf") if self.new else 0.0
        return (self.new - self.old) / self.old


def diff_metrics(old: Dict, new: Dict) -> List[DiffRow]:
    """Row per metric in either artifact, sorted by relative change
    magnitude (largest first; incomparable rows last), then name —
    deterministic so two diffs of the same artifacts compare equal."""
    flat_old = flatten_metrics(old)
    flat_new = flatten_metrics(new)
    rows = [
        DiffRow(name, flat_old.get(name), flat_new.get(name))
        for name in set(flat_old) | set(flat_new)
    ]

    def key(row: DiffRow):
        rel = row.rel
        return (0 if rel is not None else 1,
                -abs(rel) if rel is not None else 0.0,
                row.name)

    return sorted(rows, key=key)


def format_value(value: Optional[float]) -> str:
    """One side of a row: the value, or ``-`` when absent."""
    return "-" if value is None else f"{value:.6g}"


def format_rel(row: DiffRow) -> str:
    """``+12.5%``, ``-3.0%``, ``+inf``, or ``new``/``gone``."""
    rel = row.rel
    if rel is None:
        return "new" if row.old is None else "gone"
    if rel == float("inf"):
        return "+inf"
    return f"{100.0 * rel:+.1f}%"


def render_diff(rows: Sequence[DiffRow], top: Optional[int] = None,
                only_changed: bool = True) -> str:
    """The sorted delta table.  ``only_changed`` hides identical rows;
    ``top`` keeps the N largest movers."""
    shown = [r for r in rows if not only_changed or r.delta or
             r.old is None or r.new is None]
    total = len(shown)
    if top is not None:
        shown = shown[:top]

    table = format_table(
        ["metric", "old", "new", "delta", "rel"],
        [[r.name, format_value(r.old), format_value(r.new),
          f"{r.delta:+.6g}", format_rel(r)]
         for r in shown],
        title=f"metric deltas ({total} changed of {len(rows)})",
    )
    if top is not None and total > top:
        table += f"\n... {total - top} more changed metrics (--top)"
    # Key-set churn is reported explicitly (and never truncated by
    # --top): a silently vanished metric usually means instrumentation
    # was lost, which a value-threshold gate cannot see.
    added = sorted(r.name for r in rows if r.old is None)
    removed = sorted(r.name for r in rows if r.new is None)
    if added:
        table += (f"\n{len(added)} metric(s) only in the new artifact: "
                  + ", ".join(added))
    if removed:
        table += (f"\n{len(removed)} metric(s) only in the old artifact: "
                  + ", ".join(removed))
    return table


def parse_threshold(spec: str) -> Tuple[str, float]:
    """Parse one ``PATTERN=PERCENT`` threshold argument."""
    pattern, sep, percent = spec.rpartition("=")
    if not sep or not pattern:
        raise ValueError(
            f"threshold {spec!r} is not of the form PATTERN=PERCENT")
    try:
        limit = float(percent)
    except ValueError:
        raise ValueError(f"threshold {spec!r}: {percent!r} is not a number")
    return pattern, limit


def check_thresholds(
    rows: Sequence[DiffRow],
    thresholds: Sequence[Tuple[str, float]],
) -> List[Tuple[DiffRow, str, float]]:
    """Regressions: rows whose name matches a threshold pattern and
    that break it.  A positive threshold bounds the relative *increase*
    (decreases pass); a ``0`` threshold demands exact equality.  A
    gated metric gone from the new artifact violates unless its baseline
    is 0 (counters absent when zero); brand-new metrics never do."""
    violations = []
    for row in rows:
        for pattern, limit in thresholds:
            if fnmatchcase(row.name, pattern) and _breaks(row, limit):
                violations.append((row, pattern, limit))
                break
    return violations


def _breaks(row: DiffRow, limit: float) -> bool:
    if row.old is None or row.new is None:
        return row.old not in (None, 0)
    return row.new != row.old if limit == 0 else 100.0 * row.rel > limit
