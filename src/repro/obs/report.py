"""Turning a telemetry session into artifacts: the metrics JSON written
by ``--metrics-out`` (comparable across PRs, feeding the ``BENCH_*``
trajectory) and the per-phase breakdown table ``repro-atpg profile``
prints.
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..reporting.tables import format_table
from .context import Telemetry

METRICS_SCHEMA = "repro.obs.metrics/1"


def metrics_artifact(telemetry: Telemetry,
                     meta: Optional[Dict] = None) -> Dict:
    """Plain-data dump of one session: metadata, every metric, and the
    per-phase span aggregation.  ``json.dumps``-able as is."""
    spans = [
        {
            "path": path,
            "count": entry["count"],
            "total_seconds": round(entry["total_seconds"], 6),
            "depth": entry["depth"],
            "peak_rss_kb": entry["peak_rss_kb"],
        }
        for path, entry in telemetry.spans.aggregate().items()
    ]
    snapshot = telemetry.metrics.snapshot()
    return {
        "schema": METRICS_SCHEMA,
        "meta": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            **(meta or {}),
        },
        "counters": snapshot["counters"],
        "gauges": snapshot["gauges"],
        "histograms": snapshot["histograms"],
        "spans": spans,
    }


def write_metrics_json(path: Union[str, Path], telemetry: Telemetry,
                       meta: Optional[Dict] = None) -> Dict:
    """Write the artifact to ``path``; returns it."""
    artifact = metrics_artifact(telemetry, meta=meta)
    Path(path).write_text(json.dumps(artifact, indent=2, sort_keys=True)
                          + "\n")
    return artifact


def render_profile(telemetry: Telemetry, title: Optional[str] = None,
                   top: Optional[int] = None) -> str:
    """Human-readable per-phase time/counter breakdown of one session.

    Phases print as a tree, each directly under its parent; siblings
    are sorted deterministically — total time descending, then path —
    so two renderings of equivalent runs diff cleanly.  ``top`` keeps
    only the N most expensive phases; a child never costs more than its
    parent, so every kept phase keeps its ancestors.
    """
    aggregated = telemetry.spans.aggregate()
    total = sum(
        entry["total_seconds"]
        for entry in aggregated.values()
        if entry["depth"] == 0
    )
    ranked = sorted(aggregated,
                    key=lambda path: (-aggregated[path]["total_seconds"],
                                      path))
    shown = set(ranked[:top] if top is not None and top >= 0 else ranked)
    children: Dict[str, List[str]] = {}
    for path in ranked:
        parent = path.rpartition("/")[0]
        children.setdefault(parent if parent in aggregated else "",
                            []).append(path)
    ordered: List[str] = []
    pending = children.get("", [])[::-1]
    while pending:
        path = pending.pop()
        if path in shown:
            ordered.append(path)
            pending.extend(children.get(path, [])[::-1])
    span_rows: List[List[object]] = []
    for path in ordered:
        entry = aggregated[path]
        leaf = path.rsplit("/", 1)[-1]
        label = "  " * entry["depth"] + leaf
        seconds = entry["total_seconds"]
        share = 100.0 * seconds / total if total else 0.0
        peak = entry.get("peak_rss_kb", 0)
        span_rows.append([label, entry["count"], seconds, share,
                          f"{peak / 1024:.1f}" if peak else "-"])
    dropped = len(ranked) - len(ordered)
    if dropped:
        span_rows.append([f"... {dropped} more phases", "", "", "", ""])
    sections = [
        format_table(
            ["phase", "calls", "seconds", "share%", "peakMB"],
            span_rows,
            title=title or "per-phase time breakdown",
        )
    ]

    counters = telemetry.metrics.snapshot()["counters"]
    if counters:
        sections.append(format_table(
            ["counter", "value"],
            sorted(counters.items()),
            title="counters",
        ))
    # The peakMB column already shows the per-span peak_rss_kb gauges.
    gauges = [(name, value) for name, value
              in sorted(telemetry.metrics.snapshot()["gauges"].items())
              if not name.endswith(".peak_rss_kb")]
    if gauges:
        sections.append(format_table(
            ["gauge", "value"],
            gauges,
            title="gauges",
        ))
    return "\n\n".join(sections)
