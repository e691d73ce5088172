"""Shared infrastructure for static test compaction.

The compaction procedures of Section 4 were "developed for non-scan
synchronous sequential circuits, which accept a single test sequence" —
they know nothing about scan.  Their only interface to the circuit is a
*detection oracle*: given a sequence, which target faults does it detect,
and when?  :class:`CompactionOracle` packages that interface over an
incremental :class:`~repro.sim.session.SimSession`, so near-identical
queries (omission trials, restoration spans) resume from
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

from typing import Collection, Dict, List, Optional, Sequence

from ..circuit.netlist import Circuit
from ..faults.model import Fault
from ..sim.session import SimSession


class CompactionOracle:
    """Detection oracle over a fixed circuit and target fault list.

    ``incremental=False`` restarts every query of the underlying
    :class:`SimSession` from cycle 0 (the baseline the perf guards
    measure against).  ``sim_backend`` is the session's backend name
    (``None`` applies the size rule).
    """

    def __init__(self, circuit: Circuit, faults: Sequence[Fault],
                 sim_backend: Optional[str] = None,
                 incremental: bool = True):
        self.circuit = circuit
        self.faults = list(faults)
        self.session = SimSession(
            circuit,
            self.faults,
            sim_backend=sim_backend,
            incremental=incremental,
        )

    # -- mask helpers -----------------------------------------------------

    def mask_of(self, faults: Collection[Fault]) -> int:
        """Bit mask corresponding to a set of target faults."""
        return self.session.mask_of(faults)

    def faults_of(self, mask: int) -> List[Fault]:
        """Decode a detection mask back into fault objects."""
        return self.session.faults_of(mask)

    # -- whole-sequence queries ---------------------------------------------

    def detection_times(self, vectors: Sequence[Sequence[int]]) -> Dict[Fault, int]:
        """First-detection time of every target fault under ``vectors``."""
        return self.session.detection_times(vectors)

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

    def keep(self, times: Dict[Fault, int]) -> int:
        """Drop every fault ``times`` does not name, packing the rest for
        a backward sweep over ``times`` (see :meth:`SimSession.keep`)."""
        return self.session.keep(times)

    def restore_dropped(self) -> None:
        """Undo every :meth:`drop` — call before a procedure's first
        query and before its final full-universe accounting."""
        self.session.restore_dropped()

    def close(self) -> Dict[str, int]:
        """Flush the underlying session's lifetime counters to the
        telemetry journal (see :meth:`SimSession.close`)."""
        return self.session.close()
