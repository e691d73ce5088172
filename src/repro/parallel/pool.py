"""A process pool that refuses to lose work.

``ResilientPool`` wraps :class:`concurrent.futures.ProcessPoolExecutor`
with the failure semantics a long ATPG run needs:

* **per-task timeouts** — a hung worker cannot stall the run forever;
* **bounded retries with backoff** — transient failures (a killed
  worker, an OOM'd child, a broken pool) requeue the affected payloads
  up to ``max_retries`` times, sleeping ``backoff * 2**attempt``
  between rounds;
* **serial fallback** — payloads that exhaust their retries run
  in-process via ``serial_fn``; the pool therefore always returns a
  complete result set (or surfaces the task's real, deterministic
  exception in the parent, where it is debuggable).

A worker crash breaks the whole ``ProcessPoolExecutor`` (every pending
future fails with ``BrokenProcessPool``); the pool treats that as "all
unfinished payloads failed", rebuilds the executor and carries on.

Start method: ``fork`` where the platform offers it (cheap, shares the
parent's imports), else ``spawn``; everything shipped across the
boundary is spawn-safe — module-level callables, plain-data payloads —
so ``REPRO_PARALLEL_START_METHOD=spawn`` is always a valid override.

Results are returned **unordered**; callers that need determinism key
results by content (prefetch keys on circuit names), not by completion
order.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

from ..obs import context as obs

START_METHOD_ENV = "REPRO_PARALLEL_START_METHOD"


@dataclass(frozen=True)
class PoolStats:
    """Point-in-time pool occupancy returned by
    :meth:`ResilientPool.stats` (and exported by the serve daemon as
    ``parallel.pool.*`` gauges).

    ``workers`` counts live worker *processes*, ``busy`` the payloads
    currently submitted to the executor, ``pending`` the payloads known
    to the drain loop but not yet in flight (retry backlog plus any
    serial-fallback work).  All three read plain attributes the drain
    loop keeps current, so reads from other threads are safe and
    lock-free — they are a snapshot, not a synchronized view.
    """

    workers: int
    busy: int
    pending: int

    def as_dict(self) -> dict:
        return {"workers": self.workers, "busy": self.busy,
                "pending": self.pending}


def default_start_method() -> str:
    """``REPRO_PARALLEL_START_METHOD`` if set, else ``fork`` where
    available (Linux), else ``spawn``."""
    env = os.environ.get(START_METHOD_ENV, "").strip()
    if env:
        return env
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


class ResilientPool:
    """Run payloads through a worker pool, guaranteeing completion.

    Parameters
    ----------
    task_fn:
        Module-level callable executed in workers, ``task_fn(payload)``.
    jobs:
        Maximum concurrent worker processes.
    initializer / initargs:
        Forwarded to every (re)built executor.
    timeout:
        Hang detector: when no task completes for this many seconds,
        every in-flight payload is declared hung, the executor is
        rebuilt and the payloads are requeued; ``None`` disables.
    max_retries:
        Pool attempts per payload beyond the first, before the serial
        fallback takes over.
    backoff:
        Base sleep between retry rounds (exponential per attempt).
    serial_fn:
        In-process fallback, ``serial_fn(payload)``; defaults to
        ``task_fn`` (correct only when the task needs no worker
        initialization — pass an explicit fallback otherwise).
    persistent:
        Keep the executor (and its initialized worker processes) alive
        across :meth:`run` calls instead of tearing it down after each.
        Callers that issue many runs against the same initializer
        context (the serve daemon's job slots) amortize pool startup
        this way — and then **own the lifecycle**: they must call
        :meth:`close` when done, or worker processes linger until
        interpreter exit.  A non-persistent pool joins its workers at
        the end of every :meth:`run`.
    """

    def __init__(
        self,
        task_fn: Callable[[Any], Any],
        jobs: int,
        *,
        initializer: Optional[Callable] = None,
        initargs: tuple = (),
        timeout: Optional[float] = None,
        max_retries: int = 2,
        backoff: float = 0.05,
        start_method: Optional[str] = None,
        serial_fn: Optional[Callable[[Any], Any]] = None,
        label: str = "parallel.pool",
        persistent: bool = False,
    ):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.task_fn = task_fn
        self.jobs = jobs
        self.initializer = initializer
        self.initargs = initargs
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = backoff
        self.start_method = start_method or default_start_method()
        self.serial_fn = serial_fn or task_fn
        self.label = label
        self.persistent = persistent
        self._executor: Optional[ProcessPoolExecutor] = None
        # Occupancy counters maintained by the drain loop; read (only)
        # by stats().  Plain ints mutated under the GIL — good enough
        # for a monitoring snapshot.
        self._busy = 0
        self._backlog = 0

    # -- executor lifecycle -------------------------------------------------

    def _fresh_executor(self, workers: int) -> ProcessPoolExecutor:
        context = multiprocessing.get_context(self.start_method)
        return ProcessPoolExecutor(
            max_workers=workers,
            mp_context=context,
            initializer=self.initializer,
            initargs=self.initargs,
        )

    def worker_pids(self) -> List[int]:
        """PIDs of the live executor's worker processes (empty when no
        executor is held — e.g. after :meth:`close`)."""
        if self._executor is None or not self._executor._processes:
            return []
        return sorted(self._executor._processes.keys())

    def stats(self) -> PoolStats:
        """Current occupancy: live worker processes, payloads in flight,
        payloads backlogged inside an active :meth:`run` drain loop.
        Also publishes the three values as ``<label>.workers`` /
        ``<label>.busy`` / ``<label>.pending`` gauges."""
        snapshot = PoolStats(workers=len(self.worker_pids()),
                             busy=self._busy, pending=self._backlog)
        obs.set_gauge(f"{self.label}.workers", snapshot.workers)
        obs.set_gauge(f"{self.label}.busy", snapshot.busy)
        obs.set_gauge(f"{self.label}.pending", snapshot.pending)
        return snapshot

    def close(self) -> None:
        """Shut the held executor down and *join* its workers; safe to
        call repeatedly and on a pool that never ran.  Persistent pools
        must be closed explicitly — nothing else reaps their workers
        before interpreter exit."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "ResilientPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the drain loop --------------------------------------------------------

    def run(self, payloads: Sequence[Any]) -> List[Any]:
        """Execute every payload; return their results (unordered)."""
        pending: List[tuple] = [(p, 0) for p in payloads]  # (payload, attempt)
        results: List[Any] = []
        if not pending:
            return results
        obs.incr(f"{self.label}.runs")
        self._backlog = len(pending)
        completed = False
        try:
            while pending:
                batch, pending = pending, []
                self._backlog = len(batch)
                serial, submitted = [], []
                for payload, attempt in batch:
                    if attempt > self.max_retries:
                        serial.append(payload)
                    else:
                        submitted.append((payload, attempt))
                for payload in serial:
                    obs.incr(f"{self.label}.serial_fallbacks")
                    obs.event("parallel.serial_fallback", label=self.label)
                    results.append(self.serial_fn(payload))
                if not submitted:
                    continue
                if self._executor is None:
                    self._executor = self._fresh_executor(
                        min(self.jobs, len(submitted)))
                futures = {
                    self._executor.submit(self.task_fn, payload):
                        (payload, attempt)
                    for payload, attempt in submitted
                }
                self._busy = len(futures)
                self._backlog = 0
                obs.incr(f"{self.label}.tasks", len(futures))
                deadline = (time.monotonic() + self.timeout
                            if self.timeout is not None else None)
                failed: List[tuple] = []
                broken = False
                while futures:
                    remaining = (None if deadline is None
                                 else max(0.0, deadline - time.monotonic()))
                    done, _not_done = wait(
                        futures, timeout=remaining,
                        return_when=FIRST_COMPLETED)
                    if not done:
                        # No completion within `timeout` seconds:
                        # declare every in-flight payload hung and
                        # requeue them.
                        obs.incr(f"{self.label}.timeouts", len(futures))
                        failed.extend(futures.values())
                        broken = True
                        break
                    if deadline is not None:
                        # Progress happened; the hang detector re-arms.
                        deadline = time.monotonic() + self.timeout
                    for future in done:
                        payload, attempt = futures.pop(future)
                        try:
                            results.append(future.result())
                        except BrokenProcessPool:
                            broken = True
                            failed.append((payload, attempt))
                        except Exception:
                            # A real (deterministic) task error: retrying
                            # in a pool will not change it.  Route through
                            # the serial fallback so it either completes
                            # or raises *in the parent*.
                            obs.incr(f"{self.label}.task_errors")
                            failed.append((payload, self.max_retries + 1))
                    if broken:
                        failed.extend(futures.values())
                        futures.clear()
                    self._busy = len(futures)
                if broken and self._executor is not None:
                    obs.incr(f"{self.label}.broken_pools")
                    self._executor.shutdown(wait=False, cancel_futures=True)
                    self._executor = None
                for payload, attempt in failed:
                    pending.append(self._requeue(payload, attempt))
                self._backlog = len(pending)
                if pending and failed:
                    time.sleep(self.backoff *
                               (2 ** min(attempt for _p, attempt in failed)))
            completed = True
        finally:
            self._busy = 0
            self._backlog = 0
            if not self.persistent and self._executor is not None:
                # Join the workers of a run that completed, so none
                # outlives it.  After an exception tasks may still be
                # running, so do not wait for them.
                self._executor.shutdown(wait=completed, cancel_futures=True)
                self._executor = None
        return results

    def _requeue(self, payload: Any, attempt: int) -> tuple:
        """Next round's entry for one failed payload (past
        ``max_retries`` it goes to the serial fallback)."""
        next_attempt = attempt + 1
        if next_attempt <= self.max_retries:
            obs.incr(f"{self.label}.requeues")
            obs.event("parallel.requeue", label=self.label,
                      attempt=next_attempt)
        return payload, next_attempt
