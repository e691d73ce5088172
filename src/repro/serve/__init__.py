"""``repro.serve`` — ATPG as a long-running service.

The daemon (``repro-atpg serve``) accepts circuit + config submissions
over HTTP/JSON, canonicalizes each to its (circuit, run-config)
fingerprint pair, and **dedupes aggressively**: identical in-flight
work is joined, completed work replays from the content-addressed
result store, and only novel keys reach the shared worker pool.
Admission is round-robin across tenants with bounded queues and 429
back-pressure; every job journals its run for live SSE streaming.

Modules:

* :mod:`~repro.serve.app` — the asyncio HTTP plane, dispatcher
  threads, dedup/admission logic, graceful drain;
* :mod:`~repro.serve.jobs` — submission canonicalization, the dedup
  key, and the worker-side task (with cycle/wall budget enforcement);
* :mod:`~repro.serve.queue` — round-robin queueing across tenants;
* :mod:`~repro.serve.store` — tenant names + job state;
* :mod:`~repro.serve.stream` — journal -> Server-Sent Events;
* :mod:`~repro.serve.client` — the blocking Python client.
"""

from .app import ReproServer, ServerConfig, serve
from .client import ServeClient, ServeError
from .jobs import SubmissionError, job_fingerprints, job_key, \
    parse_submission
from .queue import DEFAULT_TENANT, FairQueue, QueueFull
from .store import JobStore, valid_tenant

__all__ = [
    "DEFAULT_TENANT",
    "FairQueue",
    "JobStore",
    "QueueFull",
    "ReproServer",
    "ServeClient",
    "ServeError",
    "ServerConfig",
    "SubmissionError",
    "job_fingerprints",
    "job_key",
    "parse_submission",
    "serve",
    "valid_tenant",
]
