"""repro.parallel — the resilient process pool.

:class:`ResilientPool` wraps a ``ProcessPoolExecutor`` with hang
detection, bounded retries with backoff and a guaranteed serial
fallback.  It runs whole independent units of work — one circuit's
flows for ``repro-atpg table/report --jobs N``
(:func:`repro.experiments.runner.prefetch`), one submitted job per
worker slot for the service daemon (:mod:`repro.serve`).  Flows
themselves simulate in one process; see ``docs/ARCHITECTURE.md`` →
"Why flows are serial".
"""

from .pool import PoolStats, ResilientPool

__all__ = [
    "PoolStats",
    "ResilientPool",
]
