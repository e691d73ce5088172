"""Trace identity and Chrome trace-event export.

Trace context
-------------
A *trace* is one run of the system: a run-scoped ``trace_id`` minted
when the telemetry session opens, plus a ``span_id`` per span and the
``parent_id`` linking it to its enclosing span.  The journal records
the ``trace_id`` in its ``journal.open`` event, and ``span.open`` /
``span.close`` events carry ``span``/``parent`` keys, so the span tree
can be rebuilt from the journal alone.

Ids are random (``os.urandom``), hex-encoded, and carry no meaning
beyond identity: 32 hex chars for a trace, 16 for a span — the same
shape OpenTelemetry uses, so they splice into external tracing systems
unchanged.

Trace-event export
------------------
:func:`export_chrome_trace` converts journal events into the Chrome
trace-event JSON format (the ``{"traceEvents": [...]}`` flavour), which
both ``chrome://tracing`` and `Perfetto <https://ui.perfetto.dev>`_ load
directly:

* ``span.open``/``span.close`` become ``B``/``E`` duration events on
  the run's track;
* ``coverage`` events become a coverage counter track;
* discrete happenings (cache hits, requeues) become instants.

A journal written by a crashed run exports fine: spans that never
closed are closed synthetically at the last event time.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Union

#: Schema tag recorded in the exported file's ``otherData``.
TRACE_SCHEMA = "repro.obs.trace/1"

#: ``src`` label of a run journal's events: the live tailers tag them
#: with it, and the exported trace names its one process track after it.
MAIN_SRC = "main"


def new_trace_id() -> str:
    """A fresh 128-bit run-scoped trace id (32 hex chars)."""
    return os.urandom(16).hex()


def new_span_id() -> str:
    """A fresh 64-bit span id (16 hex chars)."""
    return os.urandom(8).hex()


def export_chrome_trace(events: List[Dict]) -> Dict:
    """Convert journal ``events`` (see
    :func:`repro.obs.journal.read_journal`) into a Chrome trace-event /
    Perfetto JSON object."""
    pid = 1
    trace_events: List[Dict] = [{
        "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
        "args": {"name": MAIN_SRC},
    }]
    open_stack: List[Dict] = []
    last_ts = 0.0
    trace_id: Optional[str] = None

    for event in events:
        etype = event.get("type", "")
        data = event.get("data") or {}
        ts = round(float(event.get("t", 0.0)) * 1e6, 3)
        last_ts = ts
        if etype == "journal.open":
            if trace_id is None:
                trace_id = data.get("trace_id")
            continue
        if etype == "journal.close" or etype == "metrics.snapshot":
            continue
        if etype == "span.open":
            path = str(data.get("path", ""))
            record = {
                "name": path.rsplit("/", 1)[-1], "cat": "span", "ph": "B",
                "ts": ts, "pid": pid, "tid": 0,
                "args": {"path": path, "span": data.get("span", ""),
                         "parent": data.get("parent", "")},
            }
            trace_events.append(record)
            open_stack.append(record)
            continue
        if etype == "span.close":
            path = str(data.get("path", ""))
            trace_events.append({
                "name": path.rsplit("/", 1)[-1], "cat": "span", "ph": "E",
                "ts": ts, "pid": pid, "tid": 0,
                "args": {"path": path},
            })
            if open_stack:
                open_stack.pop()
            continue
        if etype == "coverage":
            trace_events.append({
                "name": f"coverage {data.get('phase', '')}", "ph": "C",
                "ts": ts, "pid": pid, "tid": 0,
                "args": {"percent": data.get("percent", 0.0)},
            })
            continue
        # Everything else (cache.*, faultsim.*, progress.*) exports as
        # an instant so nothing a run journaled is invisible.
        trace_events.append({
            "name": etype, "cat": "event", "ph": "i", "s": "t",
            "ts": ts, "pid": pid, "tid": 0, "args": data,
        })

    # Close spans a crashed (or still-running) run never closed.
    for record in reversed(open_stack):
        trace_events.append({
            "name": record["name"], "cat": "span", "ph": "E",
            "ts": last_ts, "pid": pid, "tid": 0,
            "args": {"path": record["args"]["path"],
                     "synthetic_close": True},
        })

    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "schema": TRACE_SCHEMA,
            "trace_id": trace_id or "",
            "sources": [MAIN_SRC],
        },
    }


def write_chrome_trace(path: Union[str, Path], events: List[Dict]) -> Dict:
    """Export ``events`` and write the trace JSON to ``path``; returns
    the exported object."""
    trace = export_chrome_trace(events)
    Path(path).write_text(json.dumps(trace, separators=(",", ":"),
                                     sort_keys=True) + "\n",
                          encoding="utf-8")
    return trace
