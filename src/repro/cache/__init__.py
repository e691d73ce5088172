"""``repro.cache`` — content-addressed result store with warm restarts.

The package has three layers:

* :mod:`~repro.cache.fingerprint` — canonical identities: a stable
  netlist hash (:func:`circuit_fingerprint`) and config hashes;
* :mod:`~repro.cache.store` — :class:`ResultStore`, the disk format:
  versioned envelopes, atomic write-then-rename, corruption-tolerant
  reads, ``cache.*`` telemetry;
* :mod:`~repro.cache.stages` — :class:`StageCache`, which maps a
  finished flow's whole result to one ``flow`` entry and back,
  bit-identically.  A flow reads and writes no other entry.

Enable it with ``FlowConfig(cache_dir=...)``, the ``REPRO_CACHE``
environment variable, or ``--cache`` on the CLI; inspect it with
``repro-atpg cache stats`` / ``cache clear``.
"""

from .fingerprint import (
    CACHE_SCHEMA,
    circuit_fingerprint,
    config_fingerprint,
)
from .stages import StageCache
from .store import (
    CACHE_ENV,
    DEFAULT_CACHE_DIR,
    ENVELOPE_SCHEMA,
    CacheStats,
    ResultStore,
    resolve_cache_dir,
)

__all__ = [
    "CACHE_ENV",
    "CACHE_SCHEMA",
    "DEFAULT_CACHE_DIR",
    "ENVELOPE_SCHEMA",
    "CacheStats",
    "ResultStore",
    "StageCache",
    "circuit_fingerprint",
    "config_fingerprint",
    "resolve_cache_dir",
]
