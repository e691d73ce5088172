"""Fair (round-robin) queueing across tenants.

The serve daemon schedules jobs from many tenants onto one shared
worker pool.  A single global FIFO would let one chatty tenant starve
everyone behind a burst of submissions, so admission and dispatch are
split per tenant:

* each tenant owns a bounded FIFO (``max_depth`` entries); a push to a
  full tenant queue raises :class:`QueueFull`, which the HTTP layer
  maps to ``429 Too Many Requests`` — back-pressure lands on the tenant
  causing it, never on the others;
* dispatchers pop via **round-robin**: the rotation visits tenants in
  a stable order and takes one item from each before moving on.  A
  tenant that queued 50 jobs and a tenant that queued 1 both get
  served on every rotation.

Thread-safe: any number of producer (HTTP handler) and consumer
(dispatcher) threads may call concurrently.  ``pop`` blocks up to its
timeout; :meth:`FairQueue.close` wakes every blocked consumer and makes
all subsequent pops return ``None`` immediately — the shutdown path.
Jobs still queued at close time are returned by :meth:`drain` so the
server can mark them cancelled instead of silently dropping them.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

#: Tenant key used when a request carries no ``X-Repro-Tenant`` header.
DEFAULT_TENANT = "default"

#: Per-tenant queue depth when the server config does not override it.
DEFAULT_MAX_DEPTH = 16


class QueueFull(Exception):
    """A tenant's queue is at capacity (maps to HTTP 429)."""

    def __init__(self, tenant: str, depth: int):
        super().__init__(
            f"queue for tenant {tenant!r} is full ({depth} pending)")
        self.tenant = tenant
        self.depth = depth


class FairQueue:
    """Bounded per-tenant FIFOs drained by round-robin."""

    def __init__(self, max_depth: int = DEFAULT_MAX_DEPTH):
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.max_depth = max_depth
        self._queues: Dict[str, Deque[Any]] = {}
        #: stable rotation order (tenant arrival order) and the index
        #: of the tenant the next pop starts from.
        self._rotation: List[str] = []
        self._cursor = 0
        self._closed = False
        self._cond = threading.Condition()

    # -- producers ----------------------------------------------------------

    def push(self, tenant: str, item: Any) -> int:
        """Enqueue ``item`` for ``tenant``; returns the tenant's new
        queue depth.  Raises :class:`QueueFull` at capacity and
        :class:`RuntimeError` after :meth:`close`."""
        with self._cond:
            if self._closed:
                raise RuntimeError("queue is closed")
            queue = self._queues.get(tenant)
            if queue is None:
                queue = self._queues[tenant] = deque()
                self._rotation.append(tenant)
            if len(queue) >= self.max_depth:
                raise QueueFull(tenant, len(queue))
            queue.append(item)
            self._cond.notify()
            return len(queue)

    # -- consumers --------------------------------------------------------------

    def _next_locked(self) -> Optional[Tuple[str, Any]]:
        """One round-robin pop; caller holds the lock."""
        n = len(self._rotation)
        for offset in range(n):
            index = (self._cursor + offset) % n
            tenant = self._rotation[index]
            queue = self._queues[tenant]
            if queue:
                # The next pop starts after the tenant served now.
                self._cursor = index + 1
                return tenant, queue.popleft()
        return None

    def pop(self, timeout: Optional[float] = None
            ) -> Optional[Tuple[str, Any]]:
        """The next ``(tenant, item)`` in fair order, blocking up to
        ``timeout`` seconds (``None`` = forever).  Returns ``None`` on
        timeout or once the queue is closed."""
        with self._cond:
            while True:
                if self._closed:
                    return None
                found = self._next_locked()
                if found is not None:
                    return found
                if not self._cond.wait(timeout=timeout):
                    return None

    # -- introspection / shutdown ---------------------------------------------

    def depth(self) -> int:
        """Total queued items across tenants."""
        with self._cond:
            return sum(len(q) for q in self._queues.values())

    def depths(self) -> Dict[str, int]:
        """Per-tenant queued-item counts (zero-depth tenants included
        once seen)."""
        with self._cond:
            return {tenant: len(queue)
                    for tenant, queue in self._queues.items()}

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Stop admission and dispatch: every blocked :meth:`pop` wakes
        and returns ``None``; later pushes raise.  Idempotent."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def drain(self) -> List[Tuple[str, Any]]:
        """Remove and return everything still queued (used after
        :meth:`close` to cancel leftover jobs explicitly)."""
        with self._cond:
            leftover: List[Tuple[str, Any]] = []
            for tenant in self._rotation:
                queue = self._queues[tenant]
                while queue:
                    leftover.append((tenant, queue.popleft()))
            return leftover
