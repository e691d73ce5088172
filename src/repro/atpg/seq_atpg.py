"""Simulation-based test generation for non-scan sequential circuits.

This is the "test generation procedure for non-scan circuits" the paper
builds on (Section 2): it "constructs a test sequence T by concatenating
test subsequences for yet-undetected target faults", processing time
units *forward only* — the style of the authors' own simulation-based
generators (ref [9] and [21]).

For each target fault the engine runs a greedy beam search: from the
current circuit state it tries a batch of candidate input vectors,
simulates the good machine and the single faulty machine one step, and
keeps the vector that makes the most progress (detection >> fault effects
latched in flip-flops >> fault activated).  A subsequence that detects
the fault is appended to the global sequence; all remaining faults are
then fault-simulated over the new suffix and dropped on detection.

Every candidate of a step starts from the same state and is drawn
without looking at simulation results, so a step simulates the whole
batch at once: :meth:`repro.sim.PackedFaultSimulator.lane_step` puts
candidate ``j`` in lane ``j`` of one bit-parallel pass, and
``select_lane`` commits the winner.  Simulators without a native lane
step (the vector kernel) run the same contract
through :class:`SteppedLanes`, one candidate at a time.  The result
bits — sequence, RNG stream, tie-breaks, backtrack counts — are those
of trying the candidates one by one and stopping at the first that
detects.

The engine knows nothing about scan.  The paper's functional-level scan
knowledge is injected through the ``completion_hook`` callback: when the
search fails but fault effects were seen in flip-flops, the hook may
return extra vectors that finish the job (see
:mod:`repro.core.scan_aware`, which implements the paper's
scan-out/scan-in completions).  An optional ``triage_hook`` is asked
before each search whether the target is proven untestable; a proven
target is aborted without a search.  This mirrors the paper's
structure — a conventional procedure, "enhanced by functional-level
knowledge that the circuit has scan".
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..circuit.gates import ONE, X, ZERO
from ..circuit.netlist import Circuit
from ..faults.model import Fault
from ..obs import context as obs
from ..obs import ledger
from ..sim.backend import SimBackend, make_backend
from ..sim.fault_sim import bit_gather, iter_fault_positions
from ..testseq.sequences import TestSequence


#: Rebuild (repack) the global fault simulator once detected faults
#: outnumber undetected by this factor, to shrink the packed words.
REPACK_FACTOR = 1.0

#: Probability that a candidate vector mutates the previous vector
#: instead of being drawn fresh (temporal locality helps sequential
#: justification).
MUTATE_PROBABILITY = 0.5


@dataclass
class SeqATPGConfig:
    """Tuning knobs for :class:`SequentialATPG`.

    Defaults suit the small/medium circuits of the experiment suite; the
    large-circuit presets in :mod:`repro.experiments.suite` lower the
    search effort to keep wall-clock reasonable.
    """

    seed: int = 0
    #: Length of the random preamble appended before targeted search; a
    #: cheap way to detect the easy faults (phase 0 of most simulation-
    #: based generators).
    initial_random_vectors: int = 64
    #: Candidate vectors tried per time step of the per-fault search.
    candidates_per_step: int = 8
    #: Maximum subsequence length explored per fault per restart.
    max_subseq_len: int = 48
    #: Independent restarts of the per-fault search.
    restarts: int = 2
    #: Abandon a search after this many steps with no score improvement.
    max_stale_steps: int = 8
    #: Cap on the number of faults given a targeted search (0 = no cap).
    #: Targets beyond the cap are still fault-simulated and dropped when
    #: a subsequence for an earlier target detects them; survivors are
    #: reported untargeted.  The corpus-scale presets use this to bound
    #: wall-clock on 10k-gate circuits deterministically.
    max_targeted_faults: int = 0

    def __post_init__(self):
        for name in ("candidates_per_step", "max_subseq_len"):
            _require(self, name, getattr(self, name) >= 1, ">= 1")
        for name in ("restarts", "max_stale_steps", "initial_random_vectors",
                     "max_targeted_faults"):
            _require(self, name, getattr(self, name) >= 0, ">= 0")


def _require(config, name: str, ok: bool, rule: str) -> None:
    """Raise ``ValueError`` naming the field when a config check fails."""
    if not ok:
        raise ValueError(f"{type(config).__name__}.{name} must be {rule}, "
                         f"got {getattr(config, name)!r}")


class SteppedLanes:
    """The lane contract of :meth:`PackedFaultSimulator.lane_step` /
    ``select_lane`` for any simulator: restore, step and read back one
    candidate at a time.

    Wraps the vector kernel, which has no native lane step and serves
    the search minis of big circuits; it is also the reference the
    packed lane step is tested against.
    """

    def __init__(self, sim):
        self.sim = sim
        self._next: list = []

    def lane_step(self, vectors, net: str) -> List[Tuple[int, int, int]]:
        sim = self.sim
        start = sim.save_state()
        outcomes = []
        self._next = []
        for vector in vectors:
            sim.restore_state(start)
            detected = sim.step(vector)
            effect_flops = sum(1 for mask in sim.ff_effect_masks() if mask)
            outcomes.append((detected, effect_flops, sim.good_net_value(net)))
            self._next.append(sim.save_state())
        sim.restore_state(start)
        return outcomes

    def select_lane(self, lane: int) -> None:
        self.sim.restore_state(self._next[lane])


def lane_view(sim):
    """``sim`` itself when it steps lanes natively, else a
    :class:`SteppedLanes` over it."""
    return sim if hasattr(sim, "lane_step") else SteppedLanes(sim)


@dataclass
class PropagationTrace:
    """What a failed search learned: the prefix that drove fault effects
    into flip-flops, and which flip-flops held effects at its end.

    ``prefix`` are the input vectors applied from the search start state;
    ``flops`` are ``q`` net names holding an effect after ``prefix``.
    ``start_states`` are the (good, faulty) scalar states the search
    started from, so a completion hook can replay and verify.
    """

    fault: Fault
    prefix: List[Tuple[int, ...]]
    flops: List[str]
    start_states: Tuple[Tuple[int, ...], Tuple[int, ...]]


#: A completion hook receives the trace of a failed search plus the
#: single-fault simulator (already holding the search start state is NOT
#: guaranteed; hooks must reload from ``trace.start_states``) and returns
#: a full detecting subsequence, or None.
CompletionHook = Callable[[PropagationTrace, SimBackend], Optional[List[Tuple[int, ...]]]]

#: A triage hook is asked about each target before its search and
#: returns True when the fault is proven untestable; such a target is
#: aborted at once, with no search and no completion hook.
TriageHook = Callable[[Fault], bool]


@dataclass
class SeqATPGResult:
    """Everything Table 5/6 needs from one generation run."""

    sequence: TestSequence
    detection_time: Dict[Fault, int] = field(default_factory=dict)
    #: Targets whose search (or triage) ended without a detection.
    aborted: List[Fault] = field(default_factory=list)
    hook_detected: List[Fault] = field(default_factory=list)
    #: Undetected faults past the ``max_targeted_faults`` cap, never
    #: searched; empty without a cap.
    untargeted: List[Fault] = field(default_factory=list)

    @property
    def detected_count(self) -> int:
        return len(self.detection_time)

    def coverage(self) -> float:
        """Detected / (detected + aborted + untargeted), in percent."""
        total = (self.detected_count + len(self.aborted)
                 + len(self.untargeted))
        if total == 0:
            return 100.0
        return 100.0 * self.detected_count / total


class SequentialATPG:
    """Forward-time, simulation-based sequential ATPG (see module docs)."""

    def __init__(
        self,
        circuit: Circuit,
        faults: Sequence[Fault],
        config: Optional[SeqATPGConfig] = None,
        completion_hook: Optional[CompletionHook] = None,
        triage_hook: Optional[TriageHook] = None,
    ):
        self.circuit = circuit
        self.faults = list(faults)
        self.config = config or SeqATPGConfig()
        self.completion_hook = completion_hook
        self.triage_hook = triage_hook
        self._rng = random.Random(self.config.seed)
        self._num_inputs = circuit.num_inputs

    def _make_sim(self, faults: Sequence[Fault]):
        """A simulator over ``faults``, picked by the size rule of
        :func:`repro.sim.make_backend`."""
        return make_backend(self.circuit, list(faults))

    # -- public entry ---------------------------------------------------------

    def generate(self) -> SeqATPGResult:
        """Generate one test sequence covering as many faults as possible."""
        config = self.config
        sequence: List[Tuple[int, ...]] = []
        result = SeqATPGResult(
            sequence=TestSequence.for_circuit(self.circuit, []),
        )
        sim = self._make_sim(self.faults)
        sim.reset()
        # Machines of ``sim`` whose detections are already recorded.
        seen = 0

        if config.initial_random_vectors:
            preamble = [self._random_vector() for _ in range(config.initial_random_vectors)]
            seen = self._apply_suffix(sim, seen, preamble, sequence, result)

        undetected = [f for f in self.faults if f not in result.detection_time]
        if config.max_targeted_faults > 0:
            undetected = undetected[: config.max_targeted_faults]
        for fault in undetected:
            if fault in result.detection_time:
                continue
            obs.incr("atpg.seq.targets")
            ledger.record("atpg.target", fault=fault, engine="seq")
            if self.triage_hook is not None and self.triage_hook(fault):
                obs.incr("atpg.seq.aborted")
                obs.incr("atpg.seq.proven")
                ledger.record("atpg.abort", fault=fault, engine="seq",
                              proven=True)
                result.aborted.append(fault)
                continue
            subsequence, via_hook = self._target(fault, sim)
            if subsequence is None:
                obs.incr("atpg.seq.aborted")
                ledger.record("atpg.abort", fault=fault, engine="seq")
                result.aborted.append(fault)
                continue
            obs.observe("atpg.seq.subseq_len", len(subsequence))
            seen = self._apply_suffix(sim, seen, subsequence, sequence,
                                      result)
            if fault not in result.detection_time:
                # Verified during search/hook but not confirmed globally —
                # treat as aborted rather than claim a phantom detection.
                obs.incr("atpg.seq.aborted")
                ledger.record("atpg.abort", fault=fault, engine="seq",
                              unconfirmed=True)
                result.aborted.append(fault)
                continue
            if via_hook:
                obs.incr("atpg.seq.hook_detections")
                ledger.record("atpg.hook_detect", fault=fault)
                result.hook_detected.append(fault)
            sim, seen = self._maybe_repack(sim, seen)

        # A fault aborted early may still fall to fault dropping while a
        # later target's subsequence is applied; keep the partitions
        # (detected / aborted / untargeted) disjoint.  Faults past the
        # ``max_targeted_faults`` cap were never searched: they are
        # untargeted, in universe order.
        detected = result.detection_time
        searched = set(result.aborted)
        result.aborted = [f for f in result.aborted if f not in detected]
        result.untargeted = [f for f in self.faults
                             if f not in detected and f not in searched]
        result.sequence = TestSequence.for_circuit(self.circuit, sequence)
        return result

    # -- global bookkeeping -------------------------------------------------------

    def _apply_suffix(self, sim, seen, suffix, sequence, result) -> int:
        """Append ``suffix`` to the global sequence, simulating it on the
        global fault simulator and recording first detections (with their
        observation points when the fault ledger is recording).  A step
        reports every mismatching machine, so only those outside ``seen``,
        the machines already recorded, are decoded; returns the new
        ``seen``."""
        base_time = len(sequence)
        detection_time = result.detection_time
        before = len(detection_time)
        for offset, vector in enumerate(suffix):
            newly = sim.step(vector) & ~seen
            if newly:
                seen |= newly
                self._record_detections(sim, newly, base_time + offset,
                                        detection_time)
            sequence.append(tuple(vector))
        dropped = len(detection_time) - before
        if dropped:
            obs.incr("faultsim.faults_dropped", dropped)
        return seen

    @staticmethod
    def _record_detections(sim, newly, time, detection_time) -> None:
        """Record ``time`` for each fault of ``newly`` not yet detected,
        with its observation points when the fault ledger is recording."""
        if not ledger.enabled():
            for fault in sim.faults_from_mask(newly):
                detection_time.setdefault(fault, time)
            return
        for fault in sim.faults_from_mask(newly):
            if fault in detection_time:
                continue
            detection_time[fault] = time
            observed = sim.detecting_outputs(sim.mask_of((fault,)))
            ledger.record("atpg.detect", fault=fault, vector=time,
                          engine="seq", observed=observed)

    def _maybe_repack(self, sim, seen):
        """Shrink the packed simulator to undetected faults when worth it;
        returns the simulator and its ``seen`` mask.

        Machines are simulated independently, so the narrower simulator
        takes the surviving machines' flip-flop planes as they are, one
        bit-gather per plane, instead of replaying the sequence.
        """
        # Every machine of ``sim`` outside ``seen`` is undetected.
        undetected = sim.fault_mask & ~seen
        count = undetected.bit_count()
        if not count or len(sim.faults) < (1 + REPACK_FACTOR) * count:
            return sim, seen
        positions = list(iter_fault_positions(undetected))
        packed = self._make_sim([sim.faults[p] for p in positions])
        gather = bit_gather([0] + [p + 1 for p in positions])
        packed._set_state_pairs([(gather(ones), gather(zeros))
                                 for ones, zeros in sim._state_pairs()])
        packed.time = sim.time
        return packed, 0

    # -- per-fault search ------------------------------------------------------------

    def _target(self, fault: Fault, global_sim) -> Tuple[Optional[List[Tuple[int, ...]]], bool]:
        """Search for a detecting subsequence for one fault.

        Returns ``(vectors, via_hook)``; ``(None, False)`` when neither
        the search nor the completion hook succeeded.
        """
        config = self.config
        good_state = global_sim.machine_state(0)
        fault_state = global_sim.machine_state(global_sim.machine_of(fault))
        mini = self._make_sim([fault])
        lanes = lane_view(mini)

        best_trace: Optional[PropagationTrace] = None
        for _restart in range(config.restarts):
            found, trace = self._beam_search(fault, mini, lanes,
                                             good_state, fault_state)
            if found is not None:
                return found, False
            # A failed rollout rewinds the search to the start state — the
            # sequential analogue of a combinational backtrack.
            obs.incr("atpg.backtracks")
            if trace is not None and (
                best_trace is None or len(trace.flops) > len(best_trace.flops)
            ):
                best_trace = trace

        if self.completion_hook is not None:
            obs.incr("atpg.seq.hook_attempts")
            if best_trace is None:
                best_trace = PropagationTrace(
                    fault=fault, prefix=[], flops=[],
                    start_states=(good_state, fault_state),
                )
            completed = self.completion_hook(best_trace, mini)
            if completed is not None:
                return completed, True
        return None, False

    def _beam_search(self, fault, mini, lanes, good_state, fault_state):
        """One greedy rollout; returns ``(vectors or None, trace or None)``.

        Each step draws every candidate, simulates them in one lane step
        and takes the first lane that detects; failing that, the first
        lane of highest score (detection dominates, then fault effects
        held in flip-flops — each one scan-out away from observation —
        then mere activation of the fault site).
        """
        config = self.config
        rng = self._rng
        width = config.candidates_per_step
        held = fault.stuck_at
        mini.reset()
        mini.load_machine_states([good_state, fault_state])
        chosen: List[Tuple[int, ...]] = []
        best_score = -1
        stale = 0
        trace_flops: List[str] = []
        trace_len = 0
        previous = None
        for _step in range(config.max_subseq_len):
            obs.incr("atpg.seq.lane_steps")
            drawn = rng.getstate()
            candidates = [self._candidate_vector(previous, rng)
                          for _ in range(width)]
            outcomes = lanes.lane_step(candidates, fault.net)
            for lane, (detected, _flops, _site) in enumerate(outcomes):
                if detected:
                    # Searching one candidate at a time would have stopped
                    # drawing here: rewind the RNG to exactly that point.
                    rng.setstate(drawn)
                    for _ in range(lane + 1):
                        self._candidate_vector(previous, rng)
                    if lane:
                        obs.incr("atpg.backtracks", lane)
                    chosen.append(candidates[lane])
                    return chosen, None
            scores = [4 * flops + (site != X and site != held)
                      for _detected, flops, site in outcomes]
            lane = max(range(width), key=scores.__getitem__)
            # Every rejected candidate is a rewound machine state — the
            # simulation-based search's analogue of a PODEM backtrack.
            if width > 1:
                obs.incr("atpg.backtracks", width - 1)
            lanes.select_lane(lane)
            score = scores[lane]
            candidate = candidates[lane]
            chosen.append(candidate)
            previous = candidate
            effects = self._flop_effects(mini)
            if effects and len(effects) >= len(trace_flops):
                trace_flops = effects
                trace_len = len(chosen)
            if score > best_score:
                best_score = score
                stale = 0
            else:
                stale += 1
                if stale > config.max_stale_steps:
                    break
        trace = PropagationTrace(
            fault=fault,
            prefix=chosen[:trace_len],
            flops=trace_flops,
            start_states=(good_state, fault_state),
        )
        return None, trace

    def _flop_effects(self, mini) -> List[str]:
        """Flip-flop ``q`` nets where the (single) fault has an effect."""
        masks = mini.ff_effect_masks()
        return [
            flop.q
            for flop, mask in zip(self.circuit.flops, masks)
            if mask & 2
        ]

    def _candidate_vector(self, previous, rng) -> Tuple[int, ...]:
        """Fresh random vector, or a light mutation of the previous one."""
        if previous is not None and rng.random() < MUTATE_PROBABILITY:
            flips = max(1, self._num_inputs // 4)
            mutated = list(previous)
            for _ in range(rng.randint(1, flips)):
                pos = rng.randrange(self._num_inputs)
                mutated[pos] ^= 1 if mutated[pos] in (ZERO, ONE) else 0
                if mutated[pos] == X:
                    mutated[pos] = rng.randint(0, 1)
            return tuple(mutated)
        return self._random_vector()

    def _random_vector(self) -> Tuple[int, ...]:
        return tuple(self._rng.randint(0, 1) for _ in range(self._num_inputs))
