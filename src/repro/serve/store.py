"""Server-side persistence: tenant cache namespaces and job state.

Tenant caches
-------------
The daemon owns one *base* result store (its ``--cache`` directory).
Every tenant named by an ``X-Repro-Tenant`` header gets a private
overlay at ``<base>/tenants/<tenant>/`` carrying a namespace pointer
back to the base (see :func:`repro.cache.store.write_namespace`), so a
worker handed that directory as its ``FlowConfig.cache_dir`` opens a
:class:`~repro.cache.store.LayeredResultStore` transparently: reads
fall through to everything the shared layer already computed, writes
stay inside the tenant's namespace.  The anonymous/default tenant maps
straight to the base store and therefore *warms the shared layer* —
a deployment that wants every tenant isolated simply never submits
without a tenant header.

Job state
---------
Each accepted job owns ``<state>/jobs/<job_id>/`` holding ``spec.json``
(the canonicalized submission), ``journal.jsonl`` (the worker's
telemetry journal, streamed live by ``GET /jobs/<id>/events``) and
``result.json`` once finished.  The durable copy of a completed result
is the ``flow`` entry the job's worker wrote into the submitting
tenant's result store (and the daemon copied into every tenant that
joined the job): an identical submission, also after a server
restart, is answered from it as ``"source": "cache"``.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path
from typing import Dict, Optional, Union

from ..cache.store import ResultStore, open_store, write_namespace
from .queue import DEFAULT_TENANT

#: Directory under the cache root holding tenant overlays.
TENANTS_DIR = "tenants"

#: Tenant names are path components; anything else is rejected at the
#: HTTP layer with a 400 before reaching the filesystem.
TENANT_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


def valid_tenant(tenant: str) -> bool:
    """Whether a tenant header value is safe to use as a directory
    name (and not an attempt to escape the cache root)."""
    return bool(TENANT_RE.match(tenant)) and tenant not in (".", "..") \
        and tenant != TENANTS_DIR


def tenant_cache_dir(base: Union[str, Path], tenant: str) -> Path:
    """The cache directory a job for ``tenant`` should run against.

    The default tenant gets the base root itself; any other tenant gets
    (and, first time, has provisioned) its namespace overlay under
    ``<base>/tenants/<tenant>`` pointing back at the base.  Callers
    must have validated the tenant with :func:`valid_tenant`.
    """
    base = Path(base)
    if tenant == DEFAULT_TENANT:
        return base
    overlay = base / TENANTS_DIR / tenant
    pointer = overlay / "namespace.json"
    if not pointer.exists():
        # Relative pointer: the whole cache tree stays relocatable.
        write_namespace(overlay, Path("..") / "..")
    return overlay


def tenant_store(base: Union[str, Path], tenant: str) -> ResultStore:
    """The (possibly layered) result store for ``tenant``."""
    return open_store(tenant_cache_dir(base, tenant))


class JobStore:
    """Filesystem layout of per-job state under the server's state dir."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        (self.root / "jobs").mkdir(parents=True, exist_ok=True)

    def job_dir(self, job_id: str) -> Path:
        return self.root / "jobs" / job_id

    def create(self, job_id: str, spec: Dict) -> Path:
        """Provision a job directory and persist its spec; returns the
        directory."""
        directory = self.job_dir(job_id)
        directory.mkdir(parents=True, exist_ok=True)
        self._write_json(directory / "spec.json", spec)
        return directory

    def journal_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "journal.jsonl"

    def result_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "result.json"

    def write_result(self, job_id: str, result: Dict) -> None:
        self._write_json(self.result_path(job_id), result)

    def read_result(self, job_id: str) -> Optional[Dict]:
        try:
            raw = json.loads(self.result_path(job_id)
                             .read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        return raw if isinstance(raw, dict) else None

    @staticmethod
    def _write_json(path: Path, payload: Dict) -> None:
        blob = json.dumps(payload, separators=(",", ":"), sort_keys=True)
        tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
        tmp.write_text(blob, encoding="utf-8")
        os.replace(tmp, path)
