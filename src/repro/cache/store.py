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

Telemetry: every lookup emits a ``cache.hit`` or ``cache.miss``
counter and journal event; writes count ``cache.stores`` and
``cache.bytes``.
"""

from __future__ import annotations

import gc
import json
import os
import re
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Union

from ..obs import context as obs

#: Envelope schema identifier; bump together with
#: :data:`~repro.cache.fingerprint.CACHE_SCHEMA` on breaking changes.
ENVELOPE_SCHEMA = "repro.cache/1"

#: Environment variable naming the cache root; ``FlowConfig.cache_dir``
#: takes precedence when set.
CACHE_ENV = "REPRO_CACHE"

#: Root used by ``--cache`` with no explicit directory.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Lifetime ``[hits, misses]`` of a store root, persisted in the root;
#: feeds the hit rate ``repro-atpg cache stats`` reports.
TALLY_FILE = "hit-tally.json"

#: Marker file that turns a store root into a *namespace layer*: a
#: tenant-private overlay whose reads fall through to a shared base
#: store (see :class:`LayeredResultStore` / :func:`open_store`).
NAMESPACE_FILE = "namespace.json"

#: Schema tag inside :data:`NAMESPACE_FILE`.
NAMESPACE_SCHEMA = "repro.cache.namespace/1"

#: Name of an entry file (see :meth:`ResultStore._entry_path`); also
#: matches the ``serve-*`` entries older daemons wrote, so ``clear``
#: removes them.
_ENTRY_NAME = re.compile(r"\w+-[0-9a-f]{24}\.json")

#: Serialises this process's tally read-modify-writes (see
#: :meth:`ResultStore._tally`).
_tally_lock = threading.Lock()


def _reset_tally_lock() -> None:
    """In a forked child: a fresh lock, since another parent thread may
    have held the old one at the fork."""
    global _tally_lock
    _tally_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_tally_lock)


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


def _tally_pair(raw: bytes) -> List[int]:
    """The ``[hits, misses]`` pair a tally file holds; ``[0, 0]`` for
    an empty or damaged one."""
    try:
        cell = json.loads(raw)
    except ValueError:
        return [0, 0]
    if isinstance(cell, list) and len(cell) == 2 \
            and all(type(n) is int for n in cell):
        return cell
    return [0, 0]


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
    #: lifetime ``[hits, misses]`` of the root.
    tallies: List[int] = field(default_factory=lambda: [0, 0])


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
        ``AttributeError`` is a ``corrupt`` miss."""
        payload, size, reason = self._read(circuit_fp, config_fp, decode)
        if reason is not None:
            return self._miss(reason)
        self._hit(circuit_fp, size)
        return payload

    def _read(self, circuit_fp: str, config_fp: str, decode=None):
        """Entry read without hit/miss telemetry: ``(payload, bytes,
        None)`` on a valid entry, ``(None, 0, reason)`` on any kind of
        miss.  The layered store overrides it so a tenant-layer miss
        that falls through to a base-layer hit counts as exactly one
        lookup, not two."""
        path = self._entry_path(circuit_fp, config_fp)
        try:
            raw = path.read_bytes()
        except OSError:
            return None, 0, "absent"
        with _cyclic_gc_paused():
            try:
                envelope = json.loads(raw.decode("utf-8"))
                schema = envelope["schema"]
                payload = envelope["payload"]
                stale = (envelope["stage"] != "flow"
                         or envelope["circuit"] != circuit_fp
                         or envelope["config"] != config_fp)
            except (ValueError, KeyError, TypeError, UnicodeDecodeError):
                return None, 0, "corrupt"
            if schema != ENVELOPE_SCHEMA:
                return None, 0, "schema"
            if stale:
                return None, 0, "stale"
            if decode is not None:
                try:
                    payload = decode(payload)
                except (AttributeError, IndexError, KeyError, TypeError,
                        ValueError):
                    return None, 0, "corrupt"
            return payload, len(raw), None

    def _hit(self, circuit_fp: str, size: int):
        obs.incr("cache.hit")
        obs.event("cache.hit", circuit=circuit_fp[:12], bytes=size)
        self._tally(hit=True)

    def _miss(self, reason: str):
        obs.incr("cache.miss")
        obs.event("cache.miss", reason=reason)
        self._tally(hit=False)
        return None

    # -- hit/miss tallies --------------------------------------------------------

    def _tally(self, hit: bool) -> None:
        """Count one lookup in ``<root>/hit-tally.json`` at once, so a
        pool worker that leaves through ``os._exit`` loses none.  The
        file is rewritten in place, new bytes first and then the
        truncation: the counts only grow, so a concurrent reader sees
        the old or the new pair, and the few system calls cost a
        fraction of creating and renaming a temp file.  Exact within a
        process; across processes the tallies are advisory (two writers
        may drop each other's increment).  Errors are swallowed."""
        path = self.root / TALLY_FILE
        with _tally_lock:
            try:
                try:
                    fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
                except FileNotFoundError:
                    self.root.mkdir(parents=True, exist_ok=True)
                    fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
                try:
                    cell = _tally_pair(os.read(fd, 256))
                    cell[0 if hit else 1] += 1
                    blob = json.dumps(cell).encode()
                    os.lseek(fd, 0, os.SEEK_SET)
                    os.write(fd, blob)
                    os.ftruncate(fd, len(blob))
                finally:
                    os.close(fd)
            except OSError:
                pass

    def tallies(self) -> List[int]:
        """Lifetime ``[hits, misses]`` of the root."""
        try:
            return _tally_pair((self.root / TALLY_FILE).read_bytes())
        except OSError:
            return [0, 0]

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

    def copy_to(self, target: "ResultStore", circuit_fp: str,
                config_fp: str) -> None:
        """Give ``target`` the entry this store serves at the address,
        byte for byte (:meth:`put` rebuilds the envelope it parsed); a
        no-op when there is no valid entry."""
        payload, _size, reason = self._read(circuit_fp, config_fp)
        if reason is None:
            target.put(circuit_fp, config_fp, payload)

    # -- maintenance ------------------------------------------------------------

    def _buckets(self):
        """Every ``<fp[:2]>/<fp>`` directory of the store's layout —
        not a tenant overlay's ``tenants/<tenant>`` directory."""
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
        """Entry count, byte total and lookup tally."""
        stats = CacheStats(root=str(self.root))
        for entry in self._entries():
            try:
                size = entry.stat().st_size
            except OSError:
                continue
            stats.entries += 1
            stats.total_bytes += size
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
        for bucket in list(self._buckets()):
            for directory in (bucket, bucket.parent):
                try:
                    directory.rmdir()
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

    def _read(self, circuit_fp: str, config_fp: str, decode=None):
        found = super()._read(circuit_fp, config_fp, decode)
        if found[2] is None:
            return found
        payload, size, base_reason = self.base._read(
            circuit_fp, config_fp, decode)
        if base_reason is None:
            obs.incr("cache.hit.base")
            return payload, size, None
        # Report the overlay's reason unless it was merely absent there
        # (the interesting diagnosis is then the base layer's).
        return None, 0, found[2] if found[2] != "absent" else base_reason


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
    the flows' cache become tenant-aware transparently.
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
