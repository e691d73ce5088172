"""Server-side persistence: tenant names and job state.

The daemon owns one result store (its ``--cache`` directory), shared
by every tenant: a ``flow`` entry is a deterministic function of the
circuit and the configuration, so whoever asked first, its bits answer
every identical request.  Tenants are a fair-queueing key and a label
in journals and ``/stats``, nothing more.  Cache directories older
daemons kept under ``<cache>/tenants/`` are never read and can be
deleted.

Job state
---------
Each accepted job owns ``<state>/jobs/<job_id>/`` holding ``spec.json``
(the canonicalized submission), ``journal.jsonl`` (the worker's
telemetry journal, streamed live by ``GET /jobs/<id>/events``) and
``result.json`` once finished.  The durable copy of a completed result
is the ``flow`` entry the job's worker wrote into the shared result
store: an identical submission from any tenant, also after a server
restart, is answered from it as ``"source": "cache"``.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path
from typing import Dict, Optional, Union

#: Tenant names are labels in journals, ``/stats`` and queue keys;
#: anything else is rejected at the HTTP layer with a 400.
TENANT_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


def valid_tenant(tenant: str) -> bool:
    """Whether a tenant header value is a well-formed tenant name."""
    return bool(TENANT_RE.match(tenant))


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
