"""Shared infrastructure for static test compaction.

The compaction procedures of Section 4 were "developed for non-scan
synchronous sequential circuits, which accept a single test sequence" —
they know nothing about scan.  Their only interface to the circuit is a
*detection oracle*: given a sequence, which target faults does it detect,
and when?  :class:`CompactionOracle` is that interface: an incremental
:class:`~repro.sim.session.SimSession`, so near-identical queries
(omission trials, restoration spans) resume from packed-state
checkpoints instead of cycle 0, and faults a procedure has secured can
be :meth:`dropped <repro.sim.session.SimSession.drop>` from the packed
planes until the procedure's final accounting.

Procedures may share one oracle (the pipelines and ablations do).  The
contract that makes that safe: every procedure calls
:meth:`~repro.sim.session.SimSession.restore_dropped` before its first
query *and* before its final full-universe accounting, so drops never
leak across procedure boundaries.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..sim.session import SimSession


class CompactionOracle(SimSession):
    """Detection oracle over a fixed circuit and target fault list.

    A :class:`SimSession` whose three whole-sequence queries are
    restated here, so the flow benchmark's tracer can time the detection
    questions the compaction procedures ask apart from the session's own
    calls.
    ``incremental=False`` restarts every query from cycle 0 (the
    baseline the perf guards measure against).
    """

    def detection_times(self, vectors: Sequence[Sequence[int]]) -> Dict[int, int]:
        """First-detection time of every live target fault under
        ``vectors``, keyed by fault position."""
        return super().detection_times(vectors)

    def detected_mask(
        self,
        vectors: Sequence[Sequence[int]],
        target_mask: Optional[int] = None,
    ) -> int:
        """Mask of targets detected by ``vectors``.

        ``target_mask`` limits interest (enables early exit once all of
        them fall).
        """
        return super().detected_mask(vectors, target_mask)

    def detects_all(
        self,
        vectors: Sequence[Sequence[int]],
        target_mask: int,
    ) -> bool:
        """Does the sequence detect every fault in ``target_mask``?"""
        return self.detected_mask(vectors, target_mask) == target_mask
