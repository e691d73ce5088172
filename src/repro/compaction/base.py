"""Shared infrastructure for static test compaction.

The compaction procedures of Section 4 were "developed for non-scan
synchronous sequential circuits, which accept a single test sequence" —
they know nothing about scan.  Their only interface to the circuit is a
*detection oracle*: given a sequence, which target faults does it detect,
and when?  :class:`CompactionOracle` packages that interface over an
incremental :class:`~repro.sim.session.SimSession`, so near-identical
queries (omission trials, restoration spans, tail trims) resume from
packed-state checkpoints instead of cycle 0, and faults a procedure has
secured can be :meth:`dropped <drop>` from the packed planes until the
procedure's final accounting.

Procedures may share one oracle (the pipelines and ablations do).  The
contract that makes that safe: every procedure calls
:meth:`restore_dropped` before its first query *and* before its final
full-universe accounting, so drops never leak across procedure
boundaries.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from ..circuit.netlist import Circuit
from ..faults.model import Fault
from ..sim.session import SimSession


class CompactionOracle:
    """Detection oracle over a fixed circuit and target fault list.

    ``incremental=False`` restarts every query of the underlying
    :class:`SimSession` from cycle 0 (the baseline the perf guards
    measure against).  ``simulator_factory`` replaces backend selection
    with a custom API-compatible factory (another fault model, a test
    double).
    """

    def __init__(self, circuit: Circuit, faults: Sequence[Fault],
                 simulator_factory=None,
                 incremental: bool = True,
                 store=None):
        self.circuit = circuit
        self.faults = list(faults)
        self.session = SimSession(
            circuit,
            self.faults,
            simulator_factory=simulator_factory,
            incremental=incremental,
        )
        self._position = {f: i + 1 for i, f in enumerate(self.faults)}
        # Full-universe detection_times results are memoized in the
        # content-addressed store when one is attached; custom simulator
        # factories (test doubles, other fault models) stay uncached —
        # their results are not keyed by the stuck-at fault identity
        # alone.  Standard backends are interchangeable bit-for-bit, so
        # cached results are backend-independent.
        self._store = store if simulator_factory is None else None
        self._stages = None

    # -- mask helpers -----------------------------------------------------

    def mask_of(self, faults: Iterable[Fault]) -> int:
        """Bit mask corresponding to a set of target faults."""
        mask = 0
        for fault in faults:
            mask |= 1 << self._position[fault]
        return mask

    def faults_of(self, mask: int) -> List[Fault]:
        """Decode a detection mask back into fault objects."""
        return self.session.faults_of(mask)

    @property
    def all_mask(self) -> int:
        return self.session.fault_mask

    # -- whole-sequence queries ---------------------------------------------

    def detection_times(self, vectors: Sequence[Sequence[int]]) -> Dict[Fault, int]:
        """First-detection time of every target fault under ``vectors``.

        With a result store attached, full-universe results (no faults
        dropped) are served from / persisted to the cache — these are
        the expensive queries warm restarts skip entirely."""
        stages = self._stage_cache()
        if stages is not None:
            times = stages.load_detection(self.faults, vectors)
            if times is not None:
                return times
        times = self.session.detection_times(vectors)
        if stages is not None:
            stages.save_detection(self.faults, vectors, times)
        return times

    def _stage_cache(self):
        """The bound :class:`~repro.cache.stages.StageCache`, when
        caching applies right now (store attached *and* the full
        universe live — dropped-fault queries are procedure-internal
        and never cached)."""
        if self._store is None or self.session.dropped_mask != 0:
            return None
        if self._stages is None:
            from ..cache.stages import StageCache

            self._stages = StageCache(self._store, self.circuit)
        return self._stages

    def detected_mask(
        self,
        vectors: Sequence[Sequence[int]],
        target_mask: Optional[int] = None,
    ) -> int:
        """Mask of targets detected by ``vectors``.

        ``target_mask`` limits interest (enables early exit once all of
        them fall).
        """
        return self.session.detected_mask(vectors, target_mask)

    def detects_all(
        self,
        vectors: Sequence[Sequence[int]],
        target_mask: int,
    ) -> bool:
        """Does the sequence detect every fault in ``target_mask``?"""
        return self.detected_mask(vectors, target_mask) == target_mask

    # -- fault dropping ------------------------------------------------------

    def drop(self, mask: int) -> int:
        """Drop secured faults from the packed simulation (see
        :meth:`SimSession.drop`); they must not be queried again until
        :meth:`restore_dropped`."""
        return self.session.drop(mask)

    def restore_dropped(self) -> None:
        """Undo every :meth:`drop` — call before a procedure's first
        query and before its final full-universe accounting."""
        self.session.restore_dropped()

    def close(self) -> Dict[str, int]:
        """Flush the underlying session's lifetime counters to the
        telemetry journal (see :meth:`SimSession.close`)."""
        return self.session.close()
