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
    duration), ``coverage`` (per-phase fault-coverage deltas).  Instrumented code may emit
    additional kinds; consumers must ignore kinds they do not know.
``data``
    Kind-specific payload object.

The writer flushes after every line so a crashed or killed run leaves a
readable journal up to its last event — and so live tailers (the
``repro-atpg watch`` TUI, :class:`repro.obs.live.JournalFollower`) see
events promptly, not whenever a block buffer happens to fill.

Writers and readers
-------------------
:class:`RunJournal` assumes a **single writer**: one process, one file,
one gap-free ``seq``.  (Multiple *threads* of that process may emit —
writes are serialized by an internal lock — but never multiple
processes.)  The file holds the whole run: it is never split,
truncated or rotated.

Any number of concurrent *readers* is fine: tailers open the file
read-only and must tolerate a truncated final line (the writer may be
mid-``write`` when they poll), which both :func:`read_journal` and the
incremental follower in :mod:`repro.obs.live` do.  Tailers must never
write to a journal they follow — the single-writer rule has no
exceptions.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

SCHEMA = "repro.obs.journal/1"


class RunJournal:
    """Streaming JSONL event writer (see module docstring for schema).

    ``trace_id``, when given, is recorded in the ``journal.open`` event
    so the journal names the run it belongs to.  Thread-safe: several
    threads may emit concurrently; each event is written and flushed
    atomically under an internal lock.
    """

    def __init__(self, path: Union[str, Path],
                 trace_id: Optional[str] = None):
        self.path = Path(path)
        self.trace_id = trace_id
        self._lock = threading.Lock()
        self._fh = self.path.open("w", encoding="utf-8")
        self._seq = 0
        self._t0 = time.perf_counter()
        self.closed = False
        head: Dict = {"schema": SCHEMA, "wall_time": time.time()}
        if trace_id:
            head["trace_id"] = trace_id
        self.emit("journal.open", **head)

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

    def emit(self, event_type: str, **data) -> None:
        """Write one event; no-op after :meth:`close`."""
        with self._lock:
            if self.closed:
                return
            self._write(event_type, data)

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
    """
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
