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
  brings the full universe back.
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
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..circuit.netlist import Circuit
from ..faults.model import Fault
from ..obs import context as obs
from ..obs import ledger
from .backend import backend_class, make_backend, resolve_concrete_backend
from .logic_sim import vector_from_string


def _popcount(mask: int) -> int:
    # int.bit_count needs 3.10; the package supports 3.9.
    return bin(mask).count("1")


class _Checkpoint:
    """One snapshot of the session timeline.

    ``seen``/``times`` hold every detection observed in cycles < ``cycle``
    (external masks / fault->cycle), independent of which faults the
    recording query targeted, so any later query can resume from here.
    """

    __slots__ = ("cycle", "token", "seen", "times")

    def __init__(self, cycle: int, token, seen: int, times: Dict[Fault, int]):
        self.cycle = cycle
        self.token = token
        self.seen = seen
        self.times = times


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
    simulator_factory:
        A custom ``factory(circuit, faults)`` used instead of backend
        selection (the transition simulator is API-compatible, except
        ``initial_state`` queries, which need ``load_state``).
    incremental:
        When ``False``, every query restarts from cycle 0 and no state
        is snapshotted — the restart baseline used by the perf guards.
    """

    def __init__(
        self,
        circuit: Circuit,
        faults: Sequence[Fault],
        *,
        simulator_factory=None,
        sim_backend: Optional[str] = None,
        incremental: bool = True,
    ):
        self.circuit = circuit
        self.faults = list(faults)
        self.incremental = incremental
        if simulator_factory is None:
            #: Concrete backend name pinned for the session's lifetime
            #: (None with a custom factory).
            self.sim_backend = resolve_concrete_backend(
                sim_backend, len(self.faults), circuit.num_gates)
            self._factory = backend_class(self.sim_backend)
            self._sim = make_backend(circuit, self.faults, self.sim_backend)
        else:
            self.sim_backend = None
            self._factory = simulator_factory
            self._sim = simulator_factory(circuit, self.faults)
        self._position = {f: i for i, f in enumerate(self.faults)}

        #: external mask with one bit per fault (bit 0 clear).
        self.fault_mask = ((1 << (len(self.faults) + 1)) - 1) & ~1
        # Internal machine j+1 simulates faults[_live_positions[j]].
        self._live_positions: List[int] = list(range(len(self.faults)))
        self._identity = True  # internal packing == external convention
        self._dropped = 0
        self._live_mask = self.fault_mask

        # Timeline: checkpoints are valid for value-equal prefixes of
        # ``_trace`` applied after ``_init_key`` was established.
        self._trace: List[Tuple[int, ...]] = []
        self._checkpoints: List[_Checkpoint] = []
        self._init_key: Optional[Tuple[int, ...]] = None

        # Instance counters (mirrored into obs under faultsim.session.*).
        self.runs = 0
        self.cycles_simulated = 0
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
            "checkpoint_hits": self.checkpoint_hits,
            "checkpoint_misses": self.checkpoint_misses,
            "faults_dropped": self.faults_dropped,
            "repacks": self.repacks,
        }
        obs.event("faultsim.session.close", **counters)
        ledger.record("session.close", **counters)
        return counters

    # -- mask conversions ------------------------------------------------------

    def mask_of(self, faults: Iterable[Fault]) -> int:
        """External mask covering ``faults`` (must be session faults)."""
        position = self._position
        mask = 0
        for fault in faults:
            mask |= 1 << (position[fault] + 1)
        return mask

    def faults_of(self, mask: int) -> List[Fault]:
        """Fault objects covered by an external ``mask``."""
        faults = self.faults
        result = []
        mask &= ~1
        while mask:
            low = mask & -mask
            result.append(faults[low.bit_length() - 2])
            mask ^= low
        return result

    @property
    def live_mask(self) -> int:
        """External mask of faults not currently dropped."""
        return self._live_mask

    @property
    def dropped_mask(self) -> int:
        """External mask of faults currently dropped."""
        return self._dropped

    def _to_external(self, mask: int) -> int:
        """Internal (current packing) detection mask -> external mask."""
        mask &= ~1
        if self._identity:
            return mask & self._live_mask
        positions = self._live_positions
        out = 0
        while mask:
            low = mask & -mask
            out |= 1 << (positions[low.bit_length() - 2] + 1)
            mask ^= low
        return out & self._live_mask

    # -- fault dropping --------------------------------------------------------

    def drop(self, mask: int) -> int:
        """Stop simulating/reporting the faults in external ``mask``.

        Returns the mask of faults actually dropped (already-dropped and
        out-of-range bits are ignored).  When the live set falls to half
        the packed width the simulator is repacked over the live faults
        only — which invalidates checkpoints, so drops are cheapest when
        batched between query bursts.
        """
        mask &= self._live_mask
        if not mask:
            return 0
        self._dropped |= mask
        self._live_mask &= ~mask
        dropped = _popcount(mask)
        self.faults_dropped += dropped
        obs.incr("faultsim.session.faults_dropped", dropped)
        if ledger.enabled():
            ledger.record("session.drop", faults=self.faults_of(mask),
                          live=_popcount(self._live_mask))
        live = _popcount(self._live_mask)
        if live * 2 <= len(self._live_positions):
            self._repack()
        return mask

    def _repack(self) -> None:
        """Rebuild the simulator over the live faults only.

        Checkpoints survive when the simulator can project its state
        tokens onto the narrower packing (machines are independent, so
        the projection is bit-identical to a narrow run from scratch);
        otherwise they are invalidated.
        """
        faults = self.faults
        old_positions = self._live_positions
        positions = [
            i for i in range(len(faults)) if self._live_mask >> (i + 1) & 1
        ]
        remap = getattr(type(self._sim), "remap_state_token", None)
        self._sim = self._factory(self.circuit, [faults[i] for i in positions])
        self._live_positions = positions
        self._identity = positions == list(range(len(faults)))
        if remap is not None and self._checkpoints:
            old_bit = {p: j + 1 for j, p in enumerate(old_positions)}
            kept_bits = [0] + [old_bit[p] for p in positions]
            for cp in self._checkpoints:
                cp.token = remap(cp.token, kept_bits)
        else:
            self._invalidate()
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
        if not self._identity:
            self._sim = self._factory(self.circuit, list(self.faults))
            self._live_positions = list(range(len(self.faults)))
            self._identity = True
        self._invalidate()

    # -- timeline --------------------------------------------------------------

    def _invalidate(self) -> None:
        self._trace = []
        self._checkpoints = []

    def invalidate(self, from_cycle: int = 0) -> None:
        """Forget the timeline from ``from_cycle`` onward (0 = all)."""
        if from_cycle <= 0:
            self._invalidate()
            return
        self._trace = self._trace[:from_cycle]
        self._checkpoints = [
            cp for cp in self._checkpoints if cp.cycle <= from_cycle
        ]

    @staticmethod
    def _normalize(vectors: Iterable[Sequence[int]]) -> List[Tuple[int, ...]]:
        return [
            tuple(vector_from_string(v)) if isinstance(v, str) else tuple(v)
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
    ) -> Tuple[int, Dict[Fault, int], int]:
        """Simulate ``vectors``; return ``(seen, times, end_cycle)``.

        ``seen``/``times`` cover *all* live detections over the cycles
        actually simulated (0..end), not just ``wanted`` — that is what
        makes the resulting checkpoints reusable by any later query.
        With ``stop_early`` the run ends as soon as ``wanted`` is fully
        covered (checked before each step, so a fully-covered query
        costs zero cycles).
        """
        key = None if initial_state is None else tuple(initial_state)
        if key != self._init_key:
            self._invalidate()
            self._init_key = key

        # Longest value-equal prefix between the new sequence and the
        # timeline the stored checkpoints describe.
        trace = self._trace
        prefix = 0
        limit = min(len(trace), len(vectors))
        while prefix < limit and trace[prefix] == vectors[prefix]:
            prefix += 1
        checkpoints = [cp for cp in self._checkpoints if cp.cycle <= prefix]
        self._checkpoints = checkpoints

        sim = self._sim
        resume = checkpoints[-1] if (self.incremental and checkpoints) else None
        if resume is not None:
            sim.restore_state(resume.token)
            start = resume.cycle
            seen = resume.seen & self._live_mask
            times = dict(resume.times)
            self.checkpoint_hits += 1
            obs.incr("faultsim.session.checkpoint_hits")
        else:
            sim.reset()
            if initial_state is not None:
                if not hasattr(sim, "load_state"):
                    raise TypeError(
                        f"{type(sim).__name__} does not support initial_state"
                    )
                sim.load_state(initial_state)
            start = 0
            seen = 0
            times = {}
            self.checkpoint_misses += 1
            obs.incr("faultsim.session.checkpoint_misses")

        # Interval choice only affects resume granularity, never
        # detection bits.
        interval = max(4, math.isqrt(len(vectors)))
        incremental = self.incremental
        last_cp_cycle = checkpoints[-1].cycle if checkpoints else 0
        faults = self.faults
        remaining = wanted & ~seen
        cycles = 0
        n = len(vectors)

        t = start
        while t < n:
            if stop_early and not remaining:
                break
            newly = self._to_external(sim.step(vectors[t])) & ~seen
            cycles += 1
            t += 1
            if newly:
                seen |= newly
                remaining &= ~newly
                scan = newly
                while scan:
                    low = scan & -scan
                    times[faults[low.bit_length() - 2]] = t - 1
                    scan ^= low
            # Snapshot on the interval grid, and also exactly at the
            # divergence point from the previous timeline: queries that
            # keep editing the same position (omission retries, span
            # growth) then resume with zero re-simulated cycles.
            if incremental and t > last_cp_cycle and (
                t % interval == 0 or t == prefix
            ):
                checkpoints.append(
                    _Checkpoint(t, sim.save_state(), seen, dict(times))
                )
                last_cp_cycle = t

        if cycles:
            if incremental and t > last_cp_cycle:
                checkpoints.append(
                    _Checkpoint(t, sim.save_state(), seen, dict(times))
                )
            # The timeline the retained + new checkpoints describe: the
            # new vectors up to the simulated depth, extended through
            # the shared prefix that justifies the retained ones.
            self._trace = vectors[: max(t, prefix)]
            self.cycles_simulated += cycles
            obs.incr("faultsim.session.cycles", cycles)
        self.runs += 1
        obs.incr("faultsim.session.runs")
        return seen, times, t

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
        seen, _times, _end = self._run(
            self._normalize(vectors), wanted, True, initial_state
        )
        return seen & wanted

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
    ) -> Dict[Fault, int]:
        """First-detection cycle per live fault over the full sequence."""
        vecs = self._normalize(vectors)
        _seen, times, _end = self._run(
            vecs, self._live_mask, False, initial_state
        )
        live = self._live_mask
        position = self._position
        return {
            f: t for f, t in times.items() if live >> (position[f] + 1) & 1
        }

    def run(
        self,
        vectors: Iterable[Sequence[int]],
        stop_when_all_detected: bool = False,
        initial_state: Optional[Sequence[int]] = None,
    ) -> "FaultSimResult":
        """Simulate a whole sequence and return a
        :class:`~repro.sim.fault_sim.FaultSimResult` over the live
        faults — the same contract as
        :meth:`PackedFaultSimulator.run`, but incremental.

        ``stop_when_all_detected`` ends the run as soon as every live
        fault has been observed; ``num_vectors`` reports the cycles the
        *timeline* covers (identical to a fresh packed run).
        """
        from .fault_sim import FaultSimResult

        vecs = self._normalize(vectors)
        wanted = self._live_mask
        seen, times, end = self._run(
            vecs, wanted, stop_when_all_detected, initial_state
        )
        live = self._live_mask
        position = self._position
        result = FaultSimResult(
            faults=[f for f in self.faults
                    if live >> (position[f] + 1) & 1],
            num_vectors=end,
        )
        detection_time = result.detection_time
        for fault, t in sorted(
            times.items(), key=lambda item: (item[1], position[item[0]])
        ):
            if live >> (position[fault] + 1) & 1:
                detection_time[fault] = t
        return result

    def scan_test_mask(
        self,
        initial_state: Sequence[int],
        vectors: Iterable[Sequence[int]],
    ) -> int:
        """Detections of one scan test: PO observations during the
        functional vectors plus flip-flop effects observable by the
        final scan-out (mirrors ``scan_test_detections``)."""
        vecs = self._normalize(vectors)
        seen, _times, _end = self._run(vecs, self._live_mask, False,
                                       initial_state)
        effects = 0
        for mask in self._sim.ff_effect_masks():
            effects |= mask
        return (seen | self._to_external(effects)) & self._live_mask
