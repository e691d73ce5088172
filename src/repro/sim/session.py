"""Incremental fault-simulation sessions (checkpoint + fault-drop engine).

Compaction is thousands of "simulate this sequence against these faults"
queries, and the sequences handed to consecutive queries are almost
always *near-identical*: omission trials share the whole prefix before
the omitted vector, restoration trials share everything outside one
span, tail-trimming trials are literal prefixes of each other.  A
:class:`SimSession` wraps one packed simulator and exploits that:

* **Checkpointing** — every ``max(4, isqrt(n))`` cycles of an
  ``n``-vector query the packed flip-flop planes are snapshotted, so
  snapshot memory grows as ``sqrt(n)``.  A query first computes the
  longest common prefix between its vector sequence and the previous
  timeline, restores the latest checkpoint at or before that point, and
  simulates only the suffix.  Checkpoints beyond the first modified
  cycle are discarded (they describe a timeline that no longer exists).
* **Fault dropping** — callers may :meth:`drop` faults they no longer
  care about (already secured by an earlier prefix, say).  Dropped
  faults stop being reported immediately, and once the live set shrinks
  to half the packed width the simulator is *repacked* over the live
  faults only, shrinking every big-int plane.  :meth:`restore_dropped`
  brings the full universe back on the full-width simulator the session
  built first.
* **Needed-word ranges** — on the vector kernel a targeted query
  (:meth:`detected_mask`, :meth:`detects_all`) steps only the machine
  words holding its still-undetected targets; :meth:`keep` packs a
  backward sweep's faults latest-detected first so those words are a
  prefix.  Checkpoints record the width they were stepped at and serve
  only queries at most that wide.  Full-universe queries step every
  word.
* **Stable masks** — sessions speak an *external* mask convention that
  never changes: bit ``i + 1`` is ``faults[i]`` of the constructor's
  fault list, bit 0 (the fault-free machine) is never set.  Repacking
  only changes the internal packing; callers never see it.

Correctness invariants:

* checkpoint validity is value-equality of the applied vector prefix
  (packed state depends only on the vectors applied since the initial
  state was established), plus identity of that initial state;
* detections recorded into a checkpoint are filtered by the live set at
  the time, so :meth:`restore_dropped` always invalidates checkpoints —
  resuming from one could otherwise silently un-detect restored faults;
* ``incremental=False`` turns both mechanisms off and restarts every
  query from cycle 0 — the reference baseline the perf guards compare
  against.
"""

from __future__ import annotations

import math
from itertools import compress, count
from operator import ne
from typing import (
    Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple,
)

from ..circuit.netlist import Circuit
from ..faults.model import Fault
from ..obs import context as obs
from ..obs import ledger
from .backend import (
    BACKEND_VECTOR, backend_class, make_backend, resolve_concrete_backend,
)
from .fault_sim import (
    FaultSimResult, bit_gather, iter_fault_positions, positions_mask,
    words_of,
)
from .logic_sim import vector_from_string


class _Checkpoint:
    """One snapshot of the session timeline.

    ``token`` holds the flip-flop planes of the first ``width`` machine
    words; every cycle before ``cycle`` was stepped at least that wide.
    ``logged`` is the detection-log length at ``cycle`` and ``seen`` the
    internal mask of every detection observed in cycles < ``cycle``
    among the machines of those words, independent of which faults the
    recording query targeted, so any later query at most that wide can
    resume from here.
    """

    __slots__ = ("cycle", "token", "width", "logged", "seen")

    def __init__(self, cycle: int, token, width: int, logged: int,
                 seen: int):
        self.cycle = cycle
        self.token = token
        self.width = width
        self.logged = logged
        self.seen = seen


class SimSession:
    """Incremental simulation façade over a packed fault simulator.

    Parameters
    ----------
    circuit:
        Circuit to simulate.
    faults:
        Fault universe.  Defines the *external* mask convention for the
        session's lifetime: bit ``i + 1`` of every mask refers to
        ``faults[i]``, regardless of dropping/repacking.
    sim_backend:
        ``None`` (default) applies the size rule of
        :func:`~repro.sim.backend.resolve_concrete_backend`; an explicit
        ``"packed"`` or ``"vector"`` exists for the backend parity tests
        and benchmarks.  Resolved to a concrete backend *once*, at
        construction: fault-dropping repacks rebuild the same backend,
        because checkpoint state tokens are remapped in the backend's
        own token format and must never switch formats mid-session.
    incremental:
        When ``False``, every query restarts from cycle 0 and no state
        is snapshotted — the restart baseline used by the perf guards.
    """

    def __init__(
        self,
        circuit: Circuit,
        faults: Sequence[Fault],
        *,
        sim_backend: Optional[str] = None,
        incremental: bool = True,
    ):
        self.circuit = circuit
        self.faults = list(faults)
        self.incremental = incremental
        #: Concrete backend name pinned for the session's lifetime.
        self.sim_backend = resolve_concrete_backend(
            sim_backend, len(self.faults), circuit.num_gates)
        self._sim = make_backend(circuit, self.faults, self.sim_backend)
        # The full-universe simulator, kept for restore_dropped.
        self._base_sim = self._sim
        # Only the vector kernel steps a word range; packed always
        # simulates the whole packing.
        self._narrows = self.sim_backend == BACKEND_VECTOR

        #: external mask with one bit per fault (bit 0 clear).
        self.fault_mask = ((1 << (len(self.faults) + 1)) - 1) & ~1
        self._dropped = 0
        self._live_mask = self.fault_mask
        self._set_packing(list(range(len(self.faults))))

        # Timeline: checkpoints are valid for value-equal prefixes of
        # ``_trace`` applied after ``_init_key`` was established.
        self._trace: List[Tuple[int, ...]] = []
        self._checkpoints: List[_Checkpoint] = []
        self._init_key: Optional[Tuple[int, ...]] = None
        # Append-only (cycle, internal mask) of the timeline's new
        # detections, in cycle order.
        self._log: List[Tuple[int, int]] = []

        # Instance counters (mirrored into obs under faultsim.session.*).
        self.runs = 0
        self.cycles_simulated = 0
        self.word_cycles = 0
        self.checkpoint_hits = 0
        self.checkpoint_misses = 0
        self.faults_dropped = 0
        self.repacks = 0

    def close(self) -> Dict[str, int]:
        """Flush the session's lifetime counters into the telemetry
        journal (one ``faultsim.session.close`` event) and return them.

        Idempotent in effect — each call reports the counters as they
        stand; callers normally invoke it once, when the session's
        owner (e.g. a compaction oracle) is done with it.
        """
        counters = {
            "runs": self.runs,
            "cycles": self.cycles_simulated,
            "word_cycles": self.word_cycles,
            "checkpoint_hits": self.checkpoint_hits,
            "checkpoint_misses": self.checkpoint_misses,
            "faults_dropped": self.faults_dropped,
            "repacks": self.repacks,
        }
        obs.event("faultsim.session.close", **counters)
        ledger.record("session.close", **counters)
        return counters

    # -- mask conversions ------------------------------------------------------

    def faults_of(self, mask: int) -> List[Fault]:
        """Fault objects covered by an external ``mask``: the decode at
        the edge, through the full-universe simulator, which packs the
        session's faults in order."""
        return self._base_sim.faults_from_mask(mask)

    @property
    def live_mask(self) -> int:
        """External mask of faults not currently dropped."""
        return self._live_mask

    @property
    def dropped_mask(self) -> int:
        """External mask of faults currently dropped."""
        return self._dropped

    # Both conversions are linear in the mask width, not per set bit:
    # detection masks going out are sparse, so their set positions are
    # scanned and written into a bit string; target masks coming in are
    # dense, so they are one ``bit_gather`` built per packing.

    def _to_external(self, mask: int) -> int:
        """Internal (current packing) mask -> external mask."""
        mask &= ~1
        if self._identity or not mask:
            return mask
        positions = self._live_positions
        bits = bytearray(b"0") * len(self.faults)  # most significant first
        for j in iter_fault_positions(mask):
            bits[~positions[j]] = 49  # ord("1")
        return int(bits, 2) << 1

    def _to_internal(self, mask: int) -> int:
        """External mask of packed faults -> internal (current packing)."""
        mask &= ~1
        if self._identity or not mask:
            return mask
        if self._internal_of is None:
            self._internal_of = bit_gather(
                [0] + [p + 1 for p in self._live_positions])
        return self._internal_of(mask)

    # -- packing ---------------------------------------------------------------

    def _set_packing(self, positions: List[int]) -> None:
        """Adopt ``positions`` as the packing of the current simulator:
        internal machine ``j + 1`` simulates ``faults[positions[j]]``."""
        self._live_positions = positions
        self._identity = positions == list(range(len(self.faults)))
        self._internal_of: Optional[Callable[[int], int]] = None
        #: Internal mask of packed machines that were dropped since the
        #: packing was built; queries treat them as already seen.
        self._dead_int = 0
        #: 64-bit machine words of the packing (the full query width).
        self._words = (len(positions) + 64) // 64

    # -- fault dropping --------------------------------------------------------

    def drop(self, mask: int) -> int:
        """Stop simulating/reporting the faults in external ``mask``.

        Returns the mask of faults actually dropped (already-dropped and
        out-of-range bits are ignored).  When the live set falls to half
        the packed width the simulator is repacked over the live faults
        only — which invalidates checkpoints, so drops are cheapest when
        batched between query bursts.
        """
        mask = self._mark_dropped(mask)
        if mask:
            self._repack_if_sparse(mask)
        return mask

    def keep(self, times: Mapping[int, int]) -> int:
        """Drop every live fault whose position ``times`` does not name
        (``times`` maps fault position to first-detection cycle, as
        :meth:`detection_times` returns it); returns the mask dropped.

        On the vector kernel, when the kept faults span more than one
        machine word, they are then repacked latest first (descending
        ``times``, ties by fault position): the faults a backward sweep
        still needs at index ``t`` — those with ``times >= t`` — fill a
        prefix of machine words, which is all a query targeting them
        steps.  Otherwise this is :meth:`drop`.
        """
        mask = self._mark_dropped(self._live_mask & ~positions_mask(times))
        live = self._live_mask
        if not self._narrows or live.bit_count() < 64:
            if mask:
                self._repack_if_sparse(mask)
            return mask
        order = sorted(iter_fault_positions(live),
                       key=lambda p: (-times[p], p))
        if order != self._live_positions:
            self._repack(order)
        elif mask:
            self._dead_int |= self._to_internal(mask)
        return mask

    def _mark_dropped(self, mask: int) -> int:
        mask &= self._live_mask
        if not mask:
            return 0
        self._dropped |= mask
        self._live_mask &= ~mask
        dropped = mask.bit_count()
        self.faults_dropped += dropped
        obs.incr("faultsim.session.faults_dropped", dropped)
        if ledger.enabled():
            ledger.record("session.drop", faults=self.faults_of(mask),
                          live=self._live_mask.bit_count())
        return mask

    def _repack_if_sparse(self, mask: int) -> None:
        live = self._live_mask
        if live.bit_count() * 2 <= len(self._live_positions):
            self._repack(list(iter_fault_positions(live)))
        else:
            self._dead_int |= self._to_internal(mask)

    def _repack(self, positions: List[int]) -> None:
        """Rebuild the simulator over the live faults ``positions`` (in
        that machine order).

        Full-width checkpoints survive: the simulator projects their
        state tokens onto the new packing (machines are independent, so
        the projection is bit-identical to a run of the new packing from
        scratch).  Narrower ones are invalidated.
        """
        faults = self.faults
        old_positions = self._live_positions
        remap = type(self._sim).remap_state_token
        checkpoints = [cp for cp in self._checkpoints
                       if cp.width == self._words]
        if not checkpoints:
            checkpoints, log = [], []
            self._invalidate()
        else:
            # The log, in external masks: a checkpoint's seen set is the
            # union of its log prefix, so both move to the new packing.
            log = [(cycle, self._to_external(mask))
                   for cycle, mask in self._log[:checkpoints[-1].logged]]
        # Release a previous narrow simulator before building the next
        # one; the full-universe one stays for restore_dropped.
        self._sim = None
        self._sim = backend_class(self.sim_backend)(
            self.circuit, [faults[i] for i in positions])
        self._set_packing(positions)
        if checkpoints:
            old_bit = {p: j + 1 for j, p in enumerate(old_positions)}
            kept_bits = [0] + [old_bit[p] for p in positions]
            live = self._live_mask
            to_internal = self._to_internal
            self._log = [(cycle, to_internal(mask & live))
                         for cycle, mask in log]
            seen = logged = 0
            for cp in checkpoints:
                cp.token = remap(cp.token, kept_bits)
                cp.width = self._words
                for _cycle, mask in self._log[logged:cp.logged]:
                    seen |= mask
                cp.seen = seen
                logged = cp.logged
            self._checkpoints = checkpoints
        self.repacks += 1
        obs.incr("faultsim.session.repacks")
        ledger.record("session.repack",
                      live=len(self._live_positions),
                      universe=len(self.faults))

    def restore_dropped(self) -> None:
        """Bring every dropped fault back into the session.

        Always invalidates checkpoints when anything was dropped: the
        detections recorded into them were filtered by the then-live
        set, so resuming from one would un-detect restored faults.
        """
        if not self._dropped:
            return
        self._dropped = 0
        self._live_mask = self.fault_mask
        self._sim = self._base_sim
        self._set_packing(list(range(len(self.faults))))
        self._invalidate()

    # -- timeline --------------------------------------------------------------

    def _invalidate(self) -> None:
        self._trace = []
        self._checkpoints = []
        self._log = []

    @staticmethod
    def _normalize(vectors: Iterable[Sequence[int]]) -> List[Tuple[int, ...]]:
        return [
            v if type(v) is tuple
            else vector_from_string(v) if isinstance(v, str) else tuple(v)
            for v in vectors
        ]

    def _check_target(self, target_mask: Optional[int]) -> int:
        if target_mask is None:
            return self._live_mask
        if target_mask & self._dropped:
            raise ValueError(
                "target_mask includes dropped faults; call restore_dropped() "
                "before querying them"
            )
        return target_mask & self.fault_mask

    def _run(
        self,
        vectors: List[Tuple[int, ...]],
        wanted: int,
        stop_early: bool,
        initial_state: Optional[Sequence[int]],
        narrow: bool = False,
    ) -> Tuple[int, int, int]:
        """Simulate ``vectors``; return ``(missing, seen, end_cycle)`` as
        internal masks: the ``wanted`` faults left undetected, and every
        live detection.

        ``seen`` (and the detection log) covers *all* live detections
        over the cycles actually simulated (0..end) among the machines
        stepped, not just ``wanted`` — that is what makes the resulting
        checkpoints reusable by any later query.  With ``stop_early`` the
        run ends as soon as ``wanted`` is fully covered (checked before
        each step, so a fully-covered query costs zero cycles).  With
        ``narrow`` (vector kernel only) the run steps only the machine
        words up to the one holding its highest still-undetected
        ``wanted`` fault; otherwise it steps the whole packing.
        """
        key = None if initial_state is None else tuple(initial_state)
        if key != self._init_key:
            self._invalidate()
            self._init_key = key

        # Longest value-equal prefix between the new sequence and the
        # timeline the stored checkpoints describe.
        trace = self._trace
        prefix = next(compress(count(), map(ne, trace, vectors)),
                      min(len(trace), len(vectors)))

        narrow = narrow and self._narrows
        wanted_int = self._to_internal(wanted)
        width = words_of(wanted_int) if narrow else self._words
        # Resume from the latest checkpoint inside the shared prefix that
        # was stepped at least as wide as this query; the narrower ones
        # after it are re-simulated (and replaced) at this width.
        checkpoints = [cp for cp in self._checkpoints if cp.cycle <= prefix]
        resume = None
        if self.incremental:
            for i in range(len(checkpoints) - 1, -1, -1):
                if checkpoints[i].width >= width:
                    resume = checkpoints[i]
                    del checkpoints[i + 1:]
                    break

        sim = self._sim
        if resume is not None:
            sim.restore_state(resume.token)
            start = resume.cycle
            seen = resume.seen | self._dead_int
            del self._log[resume.logged:]
            self.checkpoint_hits += 1
            obs.incr("faultsim.session.checkpoint_hits")
        else:
            # Narrower checkpoints' log offsets die with the log.
            checkpoints = []
            sim.reset()
            if initial_state is not None:
                sim.load_state(initial_state)
            start = 0
            seen = self._dead_int
            self._log = []
            self.checkpoint_misses += 1
            obs.incr("faultsim.session.checkpoint_misses")
        self._checkpoints = checkpoints

        # Interval choice only affects resume granularity, never
        # detection bits.  The query also snapshots exactly at the
        # divergence point from the previous timeline: queries that keep
        # editing the same position (omission retries, span growth) then
        # resume with zero re-simulated cycles.
        grid = None
        if self.incremental:
            grid = (max(4, math.isqrt(len(vectors))), prefix)
        query = sim.query(vectors[start:], start, seen, wanted_int,
                          stop_early, narrow, grid)
        t = query.end
        logged = len(self._log)
        self._log.extend(query.log)
        checkpoints.extend(
            _Checkpoint(cycle, token, width, logged + at, cp_seen)
            for cycle, token, width, at, cp_seen in query.checkpoints)
        cycles = t - start
        if cycles:
            # The timeline the retained + new checkpoints describe: the
            # new vectors up to the simulated depth, extended through
            # the shared prefix that justifies the retained ones.
            self._trace = vectors[: max(t, prefix)]
            self.cycles_simulated += cycles
            self.word_cycles += query.word_cycles
            obs.incr("faultsim.session.cycles", cycles)
            obs.incr("faultsim.session.word_cycles", query.word_cycles)
        self.runs += 1
        obs.incr("faultsim.session.runs")
        seen = query.seen
        return wanted_int & ~seen, seen & ~self._dead_int, t

    def _times(self) -> Dict[int, int]:
        """First-detection cycle per live fault position on the timeline
        the last full-width query simulated, in (cycle, position) order."""
        positions = self._live_positions
        dead = self._dead_int
        times: Dict[int, int] = {}
        for cycle, mask in self._log:
            # ``keep`` may pack out of position order; a cycle's faults
            # enter ``times`` in position order all the same.
            for p in sorted([positions[j]
                             for j in iter_fault_positions(mask & ~dead)]):
                times[p] = cycle
        return times

    # -- queries ---------------------------------------------------------------

    def detected_mask(
        self,
        vectors: Iterable[Sequence[int]],
        target_mask: Optional[int] = None,
        initial_state: Optional[Sequence[int]] = None,
    ) -> int:
        """External mask of ``target_mask`` faults the sequence detects.

        Stops simulating as soon as the target is fully covered.
        ``target_mask`` defaults to every live fault; asking about
        dropped faults raises ``ValueError``.
        """
        wanted = self._check_target(target_mask)
        missing, _seen, _end = self._run(
            self._normalize(vectors), wanted, True, initial_state, narrow=True
        )
        return wanted & ~self._to_external(missing)

    def detects_all(
        self,
        vectors: Iterable[Sequence[int]],
        target_mask: Optional[int] = None,
        initial_state: Optional[Sequence[int]] = None,
    ) -> bool:
        """True when the sequence detects every ``target_mask`` fault."""
        wanted = self._check_target(target_mask)
        return self.detected_mask(vectors, wanted, initial_state) == wanted

    def detection_times(
        self,
        vectors: Iterable[Sequence[int]],
        initial_state: Optional[Sequence[int]] = None,
    ) -> Dict[int, int]:
        """First-detection cycle per live fault over the full sequence,
        keyed by fault position (``faults[p]``, bit ``p + 1`` of every
        mask), in (cycle, position) order."""
        self._run(self._normalize(vectors), self._live_mask, False,
                  initial_state)
        return self._times()

    def run(
        self,
        vectors: Iterable[Sequence[int]],
        stop_when_all_detected: bool = False,
        initial_state: Optional[Sequence[int]] = None,
    ) -> FaultSimResult:
        """Simulate a whole sequence and return a
        :class:`~repro.sim.fault_sim.FaultSimResult` over the live
        faults — the same contract as
        :meth:`PackedFaultSimulator.run`, but incremental.

        ``stop_when_all_detected`` ends the run as soon as every live
        fault has been observed; ``num_vectors`` reports the cycles the
        *timeline* covers (identical to a fresh packed run).
        """
        _missing, _seen, end = self._run(
            self._normalize(vectors), self._live_mask,
            stop_when_all_detected, initial_state
        )
        faults = self.faults
        return FaultSimResult(
            faults=self.faults_of(self._live_mask),
            detection_time={faults[p]: t for p, t in self._times().items()},
            num_vectors=end)

    def scan_test_mask(
        self,
        initial_state: Sequence[int],
        vectors: Iterable[Sequence[int]],
    ) -> int:
        """Detections of one scan test: PO observations during the
        functional vectors plus flip-flop effects observable by the
        final scan-out (mirrors ``scan_test_detections``)."""
        vecs = self._normalize(vectors)
        _missing, seen, _end = self._run(vecs, self._live_mask, False,
                                         initial_state)
        for mask in self._sim.ff_effect_masks():
            seen |= mask
        return self._to_external(seen & ~self._dead_int) & self._live_mask
