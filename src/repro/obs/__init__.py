"""repro.obs — structured telemetry for the ATPG → fault-sim →
compaction pipeline.

Cooperating pieces (``docs/OBSERVABILITY.md`` has the full guide):

* a **metrics registry** of named counters / gauges / histograms
  (:mod:`~repro.obs.metrics`), populated by instrumentation hooks in the
  hot layers under the ``atpg.*`` / ``faultsim.*`` / ``compaction.*`` /
  ``pipeline.*`` namespaces;
* **nestable timed spans** (:mod:`~repro.obs.spans`) with a
  context-manager / decorator API, giving per-phase wall-clock and
  peak-RSS breakdowns;
* an optional **JSONL run journal** (:mod:`~repro.obs.journal`)
  streaming structured events (span boundaries, progress, coverage
  deltas) to a file as they happen;
* an optional **fault-lifecycle ledger** (:mod:`~repro.obs.ledger`)
  recording the per-fault provenance chain (targeted-by, detected-at,
  secured-by, keep/omit decisions) behind the ``repro-atpg explain-*``
  subcommands;
* **cross-run regression diffing** (:mod:`~repro.obs.diff`) of two
  ``--metrics-out`` artifacts behind ``repro-atpg diff-metrics``;
* **live monitoring** (:mod:`~repro.obs.live`): journal tailing
  (:class:`JournalFollower`), a progress/ETA model fed by span and
  ``progress.*`` events, and the renderer behind
  ``repro-atpg watch``; plus **trace identity and export**
  (:mod:`~repro.obs.trace`): run-scoped trace ids and
  Chrome/Perfetto trace-event JSON via ``repro-atpg export-trace``;
* a **run-history index** (:mod:`~repro.obs.history`): every flow run
  with ``--run-index`` appends a versioned record (fingerprints, the
  run's metrics artifact, platform/git rev) to a
  corruption-tolerant SQLite database; ``repro-atpg runs`` browses
  and trend-gates the fleet of records, and ``diff-metrics runs:A
  runs:B`` compares two of them.

Telemetry is **off by default and free when off**: every hook is a
global load plus an ``is None`` test until a session is opened with
:func:`session` (the CLI's ``--trace`` / ``--metrics-out`` flags do
this).  :mod:`~repro.obs.report` renders a finished session as the
``repro-atpg profile`` table or the cross-PR metrics JSON artifact.

The package itself exports only the emit API of
:mod:`~repro.obs.context`; every other name is imported from its own
module, so a flow loads neither the differ, the live monitor nor the
report renderer, and loads ``sqlite3`` only to write a run record.
Typical use::

    from repro import obs
    from repro.obs.report import write_metrics_json

    with obs.session(trace="s27.jsonl") as telemetry:
        flow = generation_flow(s27())
    write_metrics_json("s27-metrics.json", telemetry)
"""

from .context import (
    Telemetry,
    activate,
    active,
    coverage,
    deactivate,
    enabled,
    event,
    incr,
    observe,
    session,
    set_gauge,
    span,
    stopwatch,
)

__all__ = [
    "Telemetry",
    "session",
    "active",
    "activate",
    "deactivate",
    "enabled",
    "incr",
    "set_gauge",
    "observe",
    "event",
    "coverage",
    "span",
    "stopwatch",
]
