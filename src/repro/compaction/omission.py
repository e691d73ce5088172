"""Vector-omission static compaction (ref [22], Pomeranz & Reddy, DAC-96).

Each vector of the sequence is tentatively omitted; if fault simulation
shows that every required fault is still detected by the shortened
sequence, the omission is committed.  Unlike restoration, omission can
*strictly* shorten any sequence to a local minimum, and — as ref [22]
observes and Table 6's ``ext det`` column records — the shortened
sequence sometimes detects faults the original missed (state trajectories
change once a vector disappears), so coverage can go *up* during
compaction.

Cost control: the sweep runs **last vector first**.  Omitting vector
``t`` leaves ``[0, t)`` untouched, so a backward sweep keeps every
already-processed decision *behind* the edit point: each trial shares
its whole prefix with the previous query, and the oracle's incremental
session resumes from a packed-state checkpoint at the edit point instead
of cycle 0 — a trial near the end of the sequence costs almost no
simulated cycles.  The fault set a trial must preserve falls out of the
pass-start detection times with no extra simulation: the prefix ``[0,
t)`` is immutable during the sweep, so it detects exactly the required
faults whose first detection time is ``< t``, and the trial only needs
the rest.  Faults the input sequence never detects are *dropped* from
the packed planes for the whole sweep (they are never required),
shrinking every big-int operation; the final full-universe accounting
restores them, which is how ``ext det`` faults surface.

Which machines a trial steps: on the vector kernel the session packs
the required faults latest-detected first, so the trial at index ``t``
— which needs only the faults detected at ``>= t`` — steps just the
leading machine words holding them, and sheds words as those faults
fall.  The earlier-detected faults' machines are not simulated at all;
the answer is exact because machines are independent.  The packed
backend steps every live machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..circuit.netlist import Circuit
from ..obs import context as obs
from ..obs import ledger
from ..testseq.sequences import TestSequence
from ..faults.model import Fault
from ..sim.fault_sim import positions_mask
from .base import CompactionOracle


@dataclass
class OmissionResult:
    """Compacted sequence plus the faults gained along the way."""

    sequence: TestSequence
    omitted_count: int = 0
    #: Required faults (detection preserved by construction).
    detected: List[Fault] = field(default_factory=list)
    #: Faults newly detected by the compacted sequence although the
    #: original missed them (the paper's ``ext det``).
    extra_detected: List[Fault] = field(default_factory=list)


def omission_compact(
    circuit: Circuit,
    sequence: TestSequence,
    faults: Sequence[Fault],
    oracle: Optional[CompactionOracle] = None,
    max_passes: int = 1,
) -> OmissionResult:
    """Compact ``sequence`` by vector omission.

    ``faults`` is the full accounting universe: the required set is the
    subset the input sequence detects; anything else that becomes
    detected counts as ``extra_detected``.  ``max_passes`` > 1 repeats
    the sweep until a fixpoint or the pass budget runs out (one pass's
    omissions can enable another's).
    """
    oracle = oracle or CompactionOracle(circuit, faults)
    oracle.restore_dropped()  # a shared oracle may carry drops
    vectors = list(sequence.vectors)
    #: vectors[i] is input-sequence vector origins[i]; deleted in
    #: lockstep so every keep/omit decision names its original index.
    origins = list(range(len(vectors)))
    required_mask = 0
    want_ledger = ledger.enabled()

    omitted_total = 0
    try:
        for pass_no in range(max_passes):
            obs.incr("compaction.omission.passes")
            omitted_this_pass = 0

            # Pass-start detection times define the required set and, for
            # every position t, the faults the immutable prefix [0, t)
            # already detects (exactly those with first detection < t).
            times = oracle.detection_times(vectors)
            required_mask = positions_mask(times)
            # Everything else in the universe is never required: drop it
            # from the packed planes for the whole sweep.  The session
            # packs the rest latest-detected first, so the faults a trial
            # at index t needs (detection time >= t) fill a prefix of
            # machine words and the trial steps only that prefix.
            oracle.keep(times)

            # The vectors beyond the last required detection contribute
            # nothing that must be preserved: drop the tail outright.
            last = max(times.values()) if times else -1
            if last + 1 < len(vectors):
                omitted_this_pass += len(vectors) - (last + 1)
                if want_ledger:
                    ledger.record("omission.tail", origins=origins[last + 1:],
                                  pass_no=pass_no)
                del vectors[last + 1:]
                del origins[last + 1:]

            # Required faults ordered by detection time, as (time,
            # position) pairs; a pointer sweeps them into the needed set
            # as the index falls.
            by_time = sorted((t, p) for p, t in times.items())
            need_after = 0
            cursor = len(by_time)
            for index in range(len(vectors) - 1, -1, -1):
                while cursor and by_time[cursor - 1][0] >= index:
                    cursor -= 1
                    need_after |= 1 << (by_time[cursor][1] + 1)
                obs.incr("compaction.omission.attempts")
                trial = vectors[:index] + vectors[index + 1:]
                if want_ledger:
                    cycles_before = oracle.cycles_simulated
                    hits_before = oracle.checkpoint_hits
                detected = oracle.detected_mask(trial, need_after)
                omitted = detected == need_after
                if want_ledger:
                    # The faults a *kept* vector secures are exactly those
                    # the trial without it missed; an omitted vector
                    # secures none.
                    missing = need_after & ~detected
                    ledger.record(
                        "omission.decision", origin=origins[index],
                        omitted=omitted, pass_no=pass_no,
                        faults=oracle.faults_of(missing),
                        cycles=oracle.cycles_simulated - cycles_before,
                        checkpoint_hits=oracle.checkpoint_hits - hits_before,
                    )
                obs.event("compaction.omission.decision",
                          origin=origins[index], omitted=omitted,
                          pass_no=pass_no)
                if omitted:
                    obs.incr("compaction.omission.successes")
                    del vectors[index]
                    del origins[index]
                    omitted_this_pass += 1

            omitted_total += omitted_this_pass
            # The next pass re-derives detection times over the shortened
            # sequence; bring the dropped faults back first.
            oracle.restore_dropped()
            if omitted_this_pass == 0:
                break
    finally:
        # Every exit from the sweep — fixpoint break, max_passes
        # exhaustion, or an exception out of a trial query — must hand
        # the oracle back with the full universe live: the accounting
        # below is full-universe, and a shared oracle's next procedure
        # assumes no drops leak across procedure boundaries.
        oracle.restore_dropped()
    obs.incr("compaction.omission.omitted_vectors", omitted_total)

    compacted = TestSequence(sequence.inputs, vectors, scan_sel=sequence.scan_sel)
    assert oracle.dropped_mask == 0, (
        "omission accounting requires the full fault universe live"
    )
    final_mask = oracle.detected_mask(vectors)
    if ledger.enabled():
        ledger.record(
            "omission.result", kept=list(origins),
            omitted=omitted_total,
            required=oracle.faults_of(final_mask & required_mask),
            extra=oracle.faults_of(final_mask & ~required_mask),
        )
    obs.event("compaction.omission.result", kept=list(origins),
              omitted=omitted_total)
    return OmissionResult(
        sequence=compacted,
        omitted_count=omitted_total,
        detected=oracle.faults_of(final_mask & required_mask),
        extra_detected=oracle.faults_of(final_mask & ~required_mask),
    )
