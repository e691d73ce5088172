"""Server-Sent Events over a job's journal.

``GET /jobs/<id>/events`` streams the worker's telemetry journal as
SSE: every journal line becomes an ``event: journal`` frame, and a
``ProgressModel`` folded over the same events emits periodic
``event: progress`` frames (phase tree, completion fraction, ETA,
coverage metrics) so a dashboard never has to re-implement the fold.
The stream ends with one ``event: end`` frame carrying the terminal
job status.

:class:`EventStream` is transport-agnostic: it yields ready-to-send
``bytes`` chunks (possibly none) per :meth:`poll`, and the asyncio app
drives it on a timer.  It layers a
:class:`~repro.obs.live.JournalFollower` under a
:class:`~repro.obs.live.ProgressModel`, so the wire format is derived,
never duplicated.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

from ..obs.live import JournalFollower, ProgressModel

#: Seconds between progress frames while events are flowing.
PROGRESS_INTERVAL = 0.5


def sse_frame(event: str, data: Dict) -> bytes:
    """One SSE frame: ``event: <type>`` + single-line JSON data."""
    blob = json.dumps(data, separators=(",", ":"), sort_keys=True)
    return f"event: {event}\ndata: {blob}\n\n".encode("utf-8")


def sse_comment(text: str = "keep-alive") -> bytes:
    """An SSE comment frame (ignored by clients, defeats idle
    timeouts)."""
    return f": {text}\n\n".encode("utf-8")


class EventStream:
    """Fold a job journal into a sequence of SSE chunks."""

    def __init__(self, journal: Union[str, Path],
                 progress_interval: float = PROGRESS_INTERVAL):
        self.follower = JournalFollower(journal)
        self.model = ProgressModel()
        self.progress_interval = progress_interval
        self._last_progress = 0.0
        self._events_since_progress = False

    def poll(self, now: float) -> List[bytes]:
        """Everything newly streamable: journal frames for each new
        event, plus a progress frame if the interval elapsed and the
        model moved."""
        chunks: List[bytes] = []
        for event in self.follower.poll():
            self.model.ingest(event)
            self._events_since_progress = True
            chunks.append(sse_frame("journal", event))
        if self._events_since_progress and \
                now - self._last_progress >= self.progress_interval:
            chunks.append(self.progress_frame())
            self._last_progress = now
            self._events_since_progress = False
        return chunks

    def progress_frame(self) -> bytes:
        """The current progress snapshot as one SSE frame."""
        return sse_frame(
            "progress", dataclasses.asdict(self.model.snapshot()))

    @property
    def finished(self) -> bool:
        """True once the journal wrote its close."""
        return self.follower.finished

    def end_frame(self, status: str,
                  result: Optional[Dict] = None) -> Iterable[bytes]:
        """Final frames: one last progress snapshot, then the terminal
        ``end`` event."""
        yield self.progress_frame()
        data: Dict = {"status": status}
        if result is not None:
            data["result"] = result
        yield sse_frame("end", data)
