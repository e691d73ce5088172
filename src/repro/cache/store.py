"""Content-addressed, disk-backed result store.

Layout
------
One JSON file per entry, each a finished flow's whole result (see
:mod:`repro.cache.stages`)::

    <root>/<circuit_fp[:2]>/<circuit_fp>/flow-<config_fp[:24]>.json

Each file is a **versioned envelope**::

    {"schema": "repro.cache/1", "stage": "flow", "circuit": <circuit_fp>,
     "config": <config_fp>, "payload": {...}}

The full fingerprints are stored *inside* the envelope and re-verified
on read, so a hash-prefix collision in the filename, a renamed file or
a schema revision all surface as a clean **miss** — entries
self-invalidate rather than decode into the wrong result.  A caller may
hand :meth:`ResultStore.get` its payload decoder, so that a payload
which parses as JSON but does not decode is a miss too.

Durability and concurrency
--------------------------
Writes go through a temp file in the destination directory followed by
:func:`os.replace` — readers (including concurrent worker processes of
a prefetch pool) either see the complete previous entry or the complete
new one, never a torn write.  Any read failure whatsoever — missing
file, truncated JSON, garbage bytes, wrong schema, fingerprint mismatch
— is a miss, never an exception: a damaged cache costs a re-derivation,
not a run.

:meth:`ResultStore.put`, called once by a flow when it finishes, is
the only code that writes a store; a lookup writes nothing, so a
read-only cache directory serves hits as well as a writable one.

Telemetry: every lookup emits a ``cache.hit`` or ``cache.miss``
counter and journal event; writes count ``cache.stores`` and
``cache.bytes``.
"""

from __future__ import annotations

import gc
import json
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from ..obs import context as obs

#: Envelope schema identifier; bump together with
#: :data:`~repro.cache.fingerprint.CACHE_SCHEMA` on breaking changes.
ENVELOPE_SCHEMA = "repro.cache/1"

#: Environment variable naming the cache root; ``FlowConfig.cache_dir``
#: takes precedence when set.
CACHE_ENV = "REPRO_CACHE"

#: Root used by ``--cache`` with no explicit directory.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Name of an entry file (see :meth:`ResultStore._entry_path`); also
#: matches the ``serve-*`` entries older daemons wrote, so ``clear``
#: removes them.
_ENTRY_NAME = re.compile(r"\w+-[0-9a-f]{24}\.json")

def _replace_atomically(path: Path, blob: bytes) -> bool:
    """Write ``blob`` to ``path`` through a temp file and a rename;
    ``False``, leaving no temp file, when the disk refuses."""
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_bytes(blob)
        os.replace(tmp, path)
        return True
    except OSError:
        try:
            tmp.unlink()
        except OSError:
            pass
        return False


@contextmanager
def _cyclic_gc_paused():
    """Pause the cyclic garbage collector while an entry is parsed and
    decoded.  A ``flow`` payload builds tens of thousands of containers
    (JSON lists, then faults and sequences), all acyclic, so a
    collection in the middle finds no garbage: it only promotes the
    half-built payload to older generations.  Unpaused, those
    promotions set off a full collection (~40 ms on ``corpus_preset``)
    in most rounds of a warm replay, and a round's latency jumps
    between two levels depending on whether one lands in it.  The
    collector's previous state is restored, so a caller that disabled
    it keeps it disabled."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def resolve_cache_dir(cache_dir: Union[str, Path, None] = None
                      ) -> Optional[Path]:
    """The effective cache root: the explicit argument, else the
    ``REPRO_CACHE`` environment variable, else ``None`` (caching off)."""
    if cache_dir:
        return Path(cache_dir)
    env = os.environ.get(CACHE_ENV, "").strip()
    if env:
        return Path(env)
    return None


@dataclass
class CacheStats:
    """Summary returned by :meth:`ResultStore.stats`."""

    root: str
    entries: int = 0
    total_bytes: int = 0


class ResultStore:
    """Content-addressed store of flow results under one root
    directory.  Safe to share between processes; every method is
    crash-tolerant (see module docstring)."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)

    def _entry_path(self, circuit_fp: str, config_fp: str) -> Path:
        return (self.root / circuit_fp[:2] / circuit_fp /
                f"flow-{config_fp[:24]}.json")

    # -- lookup / persist ----------------------------------------------------

    def get(self, circuit_fp: str, config_fp: str, decode=None):
        """The stored payload for this address, or ``None`` on any kind
        of miss (absent, corrupt, stale schema, fingerprint mismatch).

        With ``decode`` given, the result is ``decode(payload)``, and a
        payload that ``decode`` rejects with a ``KeyError``,
        ``IndexError``, ``TypeError``, ``ValueError`` or
        ``AttributeError`` is a ``corrupt`` miss.  A lookup writes
        nothing."""
        path = self._entry_path(circuit_fp, config_fp)
        try:
            raw = path.read_bytes()
        except OSError:
            return self._miss("absent")
        with _cyclic_gc_paused():
            try:
                envelope = json.loads(raw.decode("utf-8"))
                schema = envelope["schema"]
                payload = envelope["payload"]
                stale = (envelope["stage"] != "flow"
                         or envelope["circuit"] != circuit_fp
                         or envelope["config"] != config_fp)
            except (ValueError, KeyError, TypeError, UnicodeDecodeError):
                return self._miss("corrupt")
            if schema != ENVELOPE_SCHEMA:
                return self._miss("schema")
            if stale:
                return self._miss("stale")
            if decode is not None:
                try:
                    payload = decode(payload)
                except (AttributeError, IndexError, KeyError, TypeError,
                        ValueError):
                    return self._miss("corrupt")
        obs.incr("cache.hit")
        obs.event("cache.hit", circuit=circuit_fp[:12], bytes=len(raw))
        return payload

    @staticmethod
    def _miss(reason: str):
        obs.incr("cache.miss")
        obs.event("cache.miss", reason=reason)
        return None

    def put(self, circuit_fp: str, config_fp: str, payload) -> None:
        """Persist a payload atomically (write-then-rename).  A write
        failure (full or read-only disk) is reported as telemetry and
        swallowed: the cache is an accelerator, never a point of
        failure."""
        envelope = {
            "schema": ENVELOPE_SCHEMA,
            "stage": "flow",
            "circuit": circuit_fp,
            "config": config_fp,
            "payload": payload,
        }
        blob = json.dumps(envelope, separators=(",", ":"))
        if not _replace_atomically(self._entry_path(circuit_fp, config_fp),
                                   blob.encode()):
            obs.incr("cache.store_errors")
            obs.event("cache.store_error")
            return
        obs.incr("cache.stores")
        obs.incr("cache.bytes", len(blob))
        obs.event("cache.store", circuit=circuit_fp[:12], bytes=len(blob))

    # -- maintenance ------------------------------------------------------------

    def _buckets(self):
        """Every ``<fp[:2]>/<fp>`` directory of the store's layout;
        other directories under the root are skipped."""
        if not self.root.is_dir():
            return
        for shard in sorted(self.root.iterdir()):
            if len(shard.name) != 2 or not shard.is_dir():
                continue
            for bucket in sorted(shard.iterdir()):
                if (len(bucket.name) > 2
                        and bucket.name.startswith(shard.name)
                        and bucket.is_dir()):
                    yield bucket

    def _entries(self):
        """Every entry file in the store's two-level layout."""
        for bucket in self._buckets():
            for entry in sorted(bucket.iterdir()):
                if _ENTRY_NAME.fullmatch(entry.name):
                    yield entry

    def stats(self) -> CacheStats:
        """Entry count and byte total."""
        stats = CacheStats(root=str(self.root))
        for entry in self._entries():
            try:
                size = entry.stat().st_size
            except OSError:
                continue
            stats.entries += 1
            stats.total_bytes += size
        return stats

    def clear(self) -> int:
        """Delete every entry (and emptied bucket directories); returns
        the number of entries removed.  Only files matching the store's
        own layout are touched."""
        removed = 0
        for entry in list(self._entries()):
            try:
                entry.unlink()
                removed += 1
            except OSError:
                continue
        for bucket in list(self._buckets()):
            for directory in (bucket, bucket.parent):
                try:
                    directory.rmdir()
                except OSError:
                    pass
        obs.incr("cache.clears")
        return removed
