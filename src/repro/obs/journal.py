"""JSONL run journal: a line-per-event stream of what a run did.

Every event is one JSON object on its own line::

    {"seq": 3, "t": 0.014201, "type": "span.open",
     "data": {"path": "pipeline.generation/atpg", "depth": 1}}

Fixed keys:

``seq``
    Monotonically increasing event index (0-based, gap-free).
``t``
    Seconds since the journal was opened (``time.perf_counter`` delta —
    monotonic, sub-microsecond).
``type``
    Dotted event kind.  Core kinds: ``journal.open`` / ``journal.close``
    (lifecycle, carry the schema tag and wall-clock time),
    ``span.open`` / ``span.close`` (phase boundaries; close carries the
    duration), ``metrics.snapshot`` (full registry dump), ``coverage``
    (per-phase fault-coverage deltas).  Instrumented code may emit
    additional kinds; consumers must ignore kinds they do not know.
``data``
    Kind-specific payload object.

The writer flushes after every line so a crashed or killed run leaves a
readable journal up to its last event — and so live tailers (the
``repro-atpg watch`` TUI, :func:`repro.obs.live.follow_journal`) see
events promptly, not whenever a block buffer happens to fill.

Writers and readers
-------------------
:class:`RunJournal` assumes a **single writer**: one process, one file,
one gap-free ``seq``.  (Multiple *threads* of that process may emit —
writes are serialized by an internal lock — but never multiple
processes.)

Any number of concurrent *readers* is fine: tailers open the file
read-only and must tolerate a truncated final line (the writer may be
mid-``write`` when they poll), which both :func:`read_journal` and the
incremental follower in :mod:`repro.obs.live` do.  Tailers must never
write to a journal they follow — the single-writer rule has no
exceptions.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

SCHEMA = "repro.obs.journal/1"

#: Environment variable capping a journal file's size in megabytes.
#: When a journal outgrows the cap it *rotates*: the full segment is
#: renamed to ``<base>.1`` (one level — a second rotation overwrites
#: it) and writing continues in a fresh file at the original path, so a
#: daemon-style run holds at most ~2x the cap on disk.  Unset or 0 =
#: unbounded (the historical behavior).
MAX_MB_ENV = "REPRO_JOURNAL_MAX_MB"

#: Rotated-segment filename: ``<base>.1``.
ROTATED_SUFFIX = ".1"


def rotated_journal_path(base: Union[str, Path]) -> Path:
    """Where a journal's previous segment lives after a rotation."""
    base = Path(base)
    return base.with_name(base.name + ROTATED_SUFFIX)


def resolve_journal_max_bytes(max_mb: Optional[float] = None
                              ) -> Optional[int]:
    """The rotation cap in bytes: the explicit argument, else
    ``$REPRO_JOURNAL_MAX_MB``, else ``None`` (no rotation)."""
    if max_mb is None:
        raw = os.environ.get(MAX_MB_ENV, "").strip()
        if not raw:
            return None
        try:
            max_mb = float(raw)
        except ValueError:
            return None
    if max_mb <= 0:
        return None
    return int(max_mb * 1024 * 1024)


class RunJournal:
    """Streaming JSONL event writer (see module docstring for schema).

    ``trace_id``, when given, is recorded in the ``journal.open`` event
    so the journal names the run it belongs to.  Thread-safe: several
    threads may emit concurrently; each event is written and flushed
    atomically under an internal lock.

    ``max_mb`` (default: ``$REPRO_JOURNAL_MAX_MB``) caps the file size:
    a journal crossing the cap emits a final ``journal.rotated`` event,
    renames itself to ``<base>.1`` and continues in a fresh segment at
    the original path — each segment is a self-contained valid journal
    (its own gap-free ``seq``, its own ``t`` zero, a fresh
    ``journal.open`` carrying the segment number), and
    :func:`read_journal` stitches the pair back into one stream.
    """

    def __init__(self, path: Union[str, Path],
                 trace_id: Optional[str] = None,
                 max_mb: Optional[float] = None):
        self.path = Path(path)
        self.trace_id = trace_id
        self._lock = threading.Lock()
        self._fh = self.path.open("w", encoding="utf-8")
        self._seq = 0
        self._t0 = time.perf_counter()
        self._bytes = 0
        self._max_bytes = resolve_journal_max_bytes(max_mb)
        self.segment = 0
        self.closed = False
        self.emit("journal.open", **self._head())

    def _head(self) -> Dict:
        head: Dict = {"schema": SCHEMA, "wall_time": time.time()}
        if self.trace_id:
            head["trace_id"] = self.trace_id
        if self.segment:
            head["segment"] = self.segment
            head["rotated_from"] = rotated_journal_path(self.path).name
        return head

    def _write(self, event_type: str, data: Dict) -> None:
        record = {
            "seq": self._seq,
            "t": round(time.perf_counter() - self._t0, 6),
            "type": event_type,
            "data": data,
        }
        self._seq += 1
        line = json.dumps(record, separators=(",", ":"),
                          sort_keys=True) + "\n"
        self._fh.write(line)
        self._fh.flush()
        self._bytes += len(line.encode("utf-8"))

    def _rotate(self) -> None:
        """Seal the current segment as ``<base>.1`` and start a fresh
        one at the original path (called under the lock)."""
        self._write("journal.rotated", {
            "segment": self.segment, "next_segment": self.segment + 1,
            "wall_time": time.time(),
        })
        self._fh.close()
        try:
            os.replace(self.path, rotated_journal_path(self.path))
        except OSError:
            # Can't rename (exotic filesystem): keep appending to the
            # original file rather than losing events.
            self._fh = self.path.open("a", encoding="utf-8")
            self._max_bytes = None
            return
        self._fh = self.path.open("w", encoding="utf-8")
        self._seq = 0
        self._t0 = time.perf_counter()
        self._bytes = 0
        self.segment += 1
        self._write("journal.open", self._head())

    def emit(self, event_type: str, **data) -> None:
        """Write one event; no-op after :meth:`close`."""
        with self._lock:
            if self.closed:
                return
            self._write(event_type, data)
            if self._max_bytes is not None and \
                    self._bytes >= self._max_bytes:
                self._rotate()

    def close(self) -> None:
        with self._lock:
            if self.closed:
                return
            self._write("journal.close", {"wall_time": time.time()})
            self.closed = True
            self._fh.close()


def read_journal(path: Union[str, Path]) -> List[Dict]:
    """Parse a journal back into event dicts, validating the invariants
    (schema tag on the first event, gap-free ``seq``, monotonic ``t``).

    Crash-safe: a truncated *trailing* line — the writer flushes per
    line, so a killed run can leave at most one partial record at the
    end — is silently dropped.  A malformed line anywhere else, a
    missing/foreign schema tag, or a schema *version* this reader does
    not know all raise ``ValueError`` with a message naming the problem.

    Rotated journals (see :class:`RunJournal`) are stitched back
    transparently: when the file's ``journal.open`` names a segment > 0
    and the ``<path>.1`` sibling exists, the previous segment's events
    come first, the current segment's are re-timed onto its clock via
    the two opens' wall-clock times, and ``seq`` is renumbered into one
    gap-free sequence — callers see a single continuous journal.
    """
    events = _read_segment(path)
    if not events:
        return events
    head = events[0].get("data", {})
    if not head.get("segment"):
        return events
    rotated = rotated_journal_path(path)
    if not rotated.exists():
        return events  # prior segment already pruned; still valid alone
    previous = _read_segment(rotated)
    if not previous:
        return events
    prev_wall = previous[0].get("data", {}).get("wall_time", 0.0)
    cur_wall = head.get("wall_time", prev_wall)
    delta = max(0.0, float(cur_wall) - float(prev_wall))
    last_t = previous[-1]["t"]
    delta = max(delta, last_t)  # clock skew must not break monotonic t
    stitched = list(previous)
    seq = previous[-1]["seq"]
    for event in events[1:]:  # drop the segment's own journal.open
        seq += 1
        joined = dict(event)
        joined["seq"] = seq
        joined["t"] = round(event["t"] + delta, 6)
        stitched.append(joined)
    return stitched


def _read_segment(path: Union[str, Path]) -> List[Dict]:
    """One journal file as validated events (no rotation stitching)."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    events: List[Dict] = []
    for number, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError as exc:
            if number == len(lines) - 1:
                break  # truncated trailing line from a crashed writer
            raise ValueError(
                f"{path}: corrupt journal line {number + 1}: {exc}")
    if not events:
        return events
    first = events[0]
    schema = first.get("data", {}).get("schema") \
        if isinstance(first.get("data"), dict) else None
    prefix = SCHEMA.rsplit("/", 1)[0] + "/"
    if first.get("type") != "journal.open" or schema is None or \
            not str(schema).startswith(prefix):
        raise ValueError(f"{path}: not a {SCHEMA} journal")
    if schema != SCHEMA:
        raise ValueError(
            f"{path}: unsupported journal schema version {schema!r} "
            f"(this reader understands {SCHEMA!r})")
    previous_t = 0.0
    for index, event in enumerate(events):
        if event.get("seq") != index:
            raise ValueError(f"{path}: seq gap in journal at event {index}")
        t = event.get("t")
        if t is None or t < previous_t:
            raise ValueError(f"{path}: time went backwards at event {index}")
        previous_t = t
    return events
