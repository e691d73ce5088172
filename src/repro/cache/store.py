"""Content-addressed, disk-backed result store.

Layout
------
One JSON file per entry::

    <root>/<circuit_fp[:2]>/<circuit_fp>/<stage>-<config_fp[:24]>.json

Each file is a **versioned envelope**::

    {"schema": "repro.cache/1", "stage": ..., "circuit": <circuit_fp>,
     "config": <config_fp>, "payload": {...}}

The full fingerprints are stored *inside* the envelope and re-verified
on read, so a hash-prefix collision in the filename, a renamed file or
a schema revision all surface as a clean **miss** — entries
self-invalidate rather than decode into the wrong result.

Durability and concurrency
--------------------------
Writes go through a temp file in the destination directory followed by
:func:`os.replace` — readers (including concurrent worker processes of
a prefetch pool) either see the complete previous entry or the complete
new one, never a torn write.  Any read failure whatsoever — missing
file, truncated JSON, garbage bytes, wrong schema, fingerprint mismatch
— is a miss, never an exception: a damaged cache costs a re-derivation,
not a run.

Telemetry: every lookup emits ``cache.hit``/``cache.miss`` counters
(plus per-stage variants) and journal events; writes count
``cache.stores`` and ``cache.bytes``.
"""

from __future__ import annotations

import atexit
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..obs import context as obs

#: Envelope schema identifier; bump together with
#: :data:`~repro.cache.fingerprint.CACHE_SCHEMA` on breaking changes.
ENVELOPE_SCHEMA = "repro.cache/1"

#: Environment variable naming the cache root; ``FlowConfig.cache_dir``
#: takes precedence when set.
CACHE_ENV = "REPRO_CACHE"

#: Root used by ``--cache`` with no explicit directory.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Per-stage hit/miss tallies persisted in the store root; feeds the
#: hit-rate percentages ``repro-atpg cache stats`` reports.
TALLY_FILE = "hit-tally.json"

#: Pending tally increments buffered before a flush to disk.
_TALLY_FLUSH_EVERY = 64

#: Marker file that turns a store root into a *namespace layer*: a
#: tenant-private overlay whose reads fall through to a shared base
#: store (see :class:`LayeredResultStore` / :func:`open_store`).
NAMESPACE_FILE = "namespace.json"

#: Schema tag inside :data:`NAMESPACE_FILE`.
NAMESPACE_SCHEMA = "repro.cache.namespace/1"


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
    #: entry count per stage name.
    stages: Dict[str, int] = field(default_factory=dict)
    #: lifetime ``[hits, misses]`` per stage (persisted tallies plus
    #: this process's pending increments).
    tallies: Dict[str, List[int]] = field(default_factory=dict)

    def hit_rate(self, stage: str) -> Optional[float]:
        """Hit-rate percentage for a stage (hits / (hits+misses)), or
        ``None`` when the stage was never looked up."""
        hits, misses = self.tallies.get(stage, (0, 0))
        total = hits + misses
        if total == 0:
            return None
        return 100.0 * hits / total


class ResultStore:
    """Content-addressed store of stage results under one root
    directory.  Safe to share between processes; every method is
    crash-tolerant (see module docstring)."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        #: stage -> [hits, misses] accumulated since the last flush.
        self._pending_tally: Dict[str, List[int]] = {}
        self._pending_count = 0
        self._atexit_registered = False

    def _entry_path(self, stage: str, circuit_fp: str,
                    config_fp: str) -> Path:
        return (self.root / circuit_fp[:2] / circuit_fp /
                f"{stage}-{config_fp[:24]}.json")

    # -- lookup / persist ----------------------------------------------------

    def get(self, stage: str, circuit_fp: str, config_fp: str):
        """The stored payload for this address, or ``None`` on any kind
        of miss (absent, corrupt, stale schema, fingerprint mismatch)."""
        payload, size, reason = self._read(stage, circuit_fp, config_fp)
        if reason is not None:
            return self._miss(stage, reason)
        self._hit(stage, circuit_fp, size)
        return payload

    def _read(self, stage: str, circuit_fp: str, config_fp: str):
        """Telemetry-free entry read: ``(payload, bytes, None)`` on a
        valid entry, ``(None, 0, reason)`` on any kind of miss.  The
        layered store composes lookups out of this so a tenant-layer
        miss that falls through to a base-layer hit counts as exactly
        one lookup, not two."""
        path = self._entry_path(stage, circuit_fp, config_fp)
        try:
            raw = path.read_bytes()
        except OSError:
            return None, 0, "absent"
        try:
            envelope = json.loads(raw.decode("utf-8"))
            schema = envelope["schema"]
            payload = envelope["payload"]
            stale = (envelope["stage"] != stage
                     or envelope["circuit"] != circuit_fp
                     or envelope["config"] != config_fp)
        except (ValueError, KeyError, TypeError, UnicodeDecodeError):
            return None, 0, "corrupt"
        if schema != ENVELOPE_SCHEMA:
            return None, 0, "schema"
        if stale:
            return None, 0, "stale"
        return payload, len(raw), None

    def _hit(self, stage: str, circuit_fp: str, size: int):
        obs.incr("cache.hit")
        obs.incr(f"cache.hit.{stage}")
        obs.event("cache.hit", stage=stage, circuit=circuit_fp[:12],
                  bytes=size)
        self._tally(stage, hit=True)

    def _miss(self, stage: str, reason: str):
        obs.incr("cache.miss")
        obs.incr(f"cache.miss.{stage}")
        obs.event("cache.miss", stage=stage, reason=reason)
        self._tally(stage, hit=False)
        return None

    # -- hit/miss tallies --------------------------------------------------------

    def _tally(self, stage: str, hit: bool) -> None:
        """Count one lookup toward the persisted per-stage hit-rate
        tallies.  Buffered (flushed every :data:`_TALLY_FLUSH_EVERY`
        lookups and at interpreter exit); like every store write,
        best-effort."""
        cell = self._pending_tally.setdefault(stage, [0, 0])
        cell[0 if hit else 1] += 1
        self._pending_count += 1
        if not self._atexit_registered:
            self._atexit_registered = True
            atexit.register(self.flush_tallies)
        if self._pending_count >= _TALLY_FLUSH_EVERY:
            self.flush_tallies()

    def flush_tallies(self) -> None:
        """Merge pending hit/miss counts into ``<root>/hit-tally.json``
        (read-modify-write + atomic rename; concurrent writers may drop
        each other's increments — the tallies are advisory, last writer
        wins).  Errors are swallowed: tallies never fail a run."""
        if not self._pending_count:
            return
        pending, self._pending_tally = self._pending_tally, {}
        self._pending_count = 0
        path = self.root / TALLY_FILE
        merged = self._read_tally_file()
        for stage, (hits, misses) in pending.items():
            cell = merged.setdefault(stage, [0, 0])
            cell[0] += hits
            cell[1] += misses
        tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_text(json.dumps(merged, separators=(",", ":"),
                                      sort_keys=True), encoding="utf-8")
            os.replace(tmp, path)
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass

    def _read_tally_file(self) -> Dict[str, List[int]]:
        try:
            raw = json.loads((self.root / TALLY_FILE)
                             .read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return {}
        tallies: Dict[str, List[int]] = {}
        if isinstance(raw, dict):
            for stage, cell in raw.items():
                if (isinstance(cell, list) and len(cell) == 2
                        and all(isinstance(n, int) for n in cell)):
                    tallies[str(stage)] = [cell[0], cell[1]]
        return tallies

    def tallies(self) -> Dict[str, List[int]]:
        """Lifetime ``stage -> [hits, misses]``: the persisted file plus
        this process's unflushed increments."""
        merged = self._read_tally_file()
        for stage, (hits, misses) in self._pending_tally.items():
            cell = merged.setdefault(stage, [0, 0])
            cell[0] += hits
            cell[1] += misses
        return merged

    def put(self, stage: str, circuit_fp: str, config_fp: str,
            payload) -> None:
        """Persist a payload atomically (write-then-rename).  A write
        failure (full or read-only disk) is reported as telemetry and
        swallowed: the cache is an accelerator, never a point of
        failure."""
        path = self._entry_path(stage, circuit_fp, config_fp)
        envelope = {
            "schema": ENVELOPE_SCHEMA,
            "stage": stage,
            "circuit": circuit_fp,
            "config": config_fp,
            "payload": payload,
        }
        blob = json.dumps(envelope, separators=(",", ":"))
        tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_text(blob, encoding="utf-8")
            os.replace(tmp, path)
        except OSError:
            obs.incr("cache.store_errors")
            obs.event("cache.store_error", stage=stage)
            try:
                tmp.unlink()
            except OSError:
                pass
            return
        obs.incr("cache.stores")
        obs.incr("cache.bytes", len(blob))
        obs.event("cache.store", stage=stage, circuit=circuit_fp[:12],
                  bytes=len(blob))

    # -- maintenance ------------------------------------------------------------

    def _entries(self):
        """Every entry file in the store's two-level layout."""
        if not self.root.is_dir():
            return
        for shard in sorted(self.root.iterdir()):
            if not shard.is_dir():
                continue
            for bucket in sorted(shard.iterdir()):
                if not bucket.is_dir():
                    continue
                for entry in sorted(bucket.glob("*.json")):
                    yield entry

    def stats(self) -> CacheStats:
        """Entry counts, byte totals and lookup tallies (per stage and
        overall)."""
        stats = CacheStats(root=str(self.root))
        for entry in self._entries():
            try:
                size = entry.stat().st_size
            except OSError:
                continue
            stage = entry.name.rsplit("-", 1)[0]
            stats.entries += 1
            stats.total_bytes += size
            stats.stages[stage] = stats.stages.get(stage, 0) + 1
        stats.tallies = self.tallies()
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
        if self.root.is_dir():
            for shard in list(self.root.iterdir()):
                if not shard.is_dir():
                    continue
                for bucket in list(shard.iterdir()):
                    try:
                        bucket.rmdir()
                    except OSError:
                        pass
                try:
                    shard.rmdir()
                except OSError:
                    pass
        obs.incr("cache.clears")
        return removed


class LayeredResultStore(ResultStore):
    """A tenant-private overlay with read-through to a shared base.

    Lookups consult the overlay first and fall through to the base
    store on a miss; writes land in the overlay only, so one tenant's
    results never pollute another's namespace while everything already
    in the shared layer is served to all tenants for free.  A
    fall-through hit counts as a single ``cache.hit`` (plus a
    ``cache.hit.base`` marker); both layers missing counts one miss.

    Exactly one level of layering is supported: the base is always a
    plain :class:`ResultStore`, never another overlay — namespace
    chains would make invalidation unreasonable.
    """

    def __init__(self, root: Union[str, Path],
                 base: Union[str, Path, ResultStore]):
        super().__init__(root)
        self.base = (base if isinstance(base, ResultStore)
                     else ResultStore(base))

    def get(self, stage: str, circuit_fp: str, config_fp: str):
        payload, size, reason = self._read(stage, circuit_fp, config_fp)
        if reason is None:
            self._hit(stage, circuit_fp, size)
            return payload
        payload, size, base_reason = self.base._read(
            stage, circuit_fp, config_fp)
        if base_reason is None:
            obs.incr("cache.hit.base")
            self._hit(stage, circuit_fp, size)
            return payload
        # Report the overlay's reason unless it was merely absent there
        # (the interesting diagnosis is then the base layer's).
        return self._miss(stage,
                          reason if reason != "absent" else base_reason)


def write_namespace(root: Union[str, Path],
                    base: Union[str, Path]) -> Path:
    """Mark ``root`` as a namespace layer over ``base`` by writing its
    :data:`NAMESPACE_FILE` pointer (atomic, idempotent).  Returns the
    pointer path."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    path = root / NAMESPACE_FILE
    blob = json.dumps({"schema": NAMESPACE_SCHEMA, "base": str(base)},
                      separators=(",", ":"), sort_keys=True)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    tmp.write_text(blob, encoding="utf-8")
    os.replace(tmp, path)
    return path


def open_store(root: Union[str, Path]) -> ResultStore:
    """Open a store root, honouring a namespace pointer when present.

    A root containing a valid :data:`NAMESPACE_FILE` opens as a
    :class:`LayeredResultStore` over the base it names (relative base
    paths resolve against the root); anything else — no pointer,
    unreadable pointer, wrong schema — opens as a plain
    :class:`ResultStore`, so a damaged pointer degrades to an isolated
    cache rather than an error.  Every internal call site
    (``FlowConfig.result_store``) routes through this factory, which is
    what lets the serve daemon hand workers a tenant directory and have
    the whole stage-cache machinery become tenant-aware transparently.
    """
    root = Path(root)
    try:
        raw = json.loads((root / NAMESPACE_FILE)
                         .read_text(encoding="utf-8"))
        base = raw["base"] if raw["schema"] == NAMESPACE_SCHEMA else None
    except (OSError, ValueError, KeyError, TypeError):
        base = None
    if not base or not isinstance(base, str):
        return ResultStore(root)
    base_path = Path(base)
    if not base_path.is_absolute():
        base_path = root / base_path
    return LayeredResultStore(root, ResultStore(base_path))
