"""Bit-parallel sequential transition-fault simulator.

Same architecture as :class:`~repro.sim.fault_sim.PackedFaultSimulator`
— machine 0 is fault-free, machine ``f >= 1`` carries fault ``f-1``, one
big-int pair per net — but the injection is *dynamic*: a transition
fault forces its stale value only in the cycle where the faulty machine
would have switched.  Concretely, for a slow-to-rise site ``n`` packed
at bit ``b``:

    launch_b = (n was 0 in machine b last cycle) and (n computes 1 now)
    if launch_b: machine b sees 0 at n this cycle

The "last cycle" value is the *post-injection* faulty value, so a site
that keeps getting blocked keeps holding — the gross-delay model.  X
previous values never launch.

Detection, state handling, snapshots and the mask/result API mirror the
stuck-at simulator so the ATPG engines can drive either through the same
interface (see ``SequentialATPG(simulator_factory=...)``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..circuit.gates import ONE, X, ZERO
from ..circuit.netlist import Circuit
from ..faults.transition import RISE, TransitionFault
from .fault_sim import (
    FaultSimResult,
    _eval_gates,
    compiled_topology,
    iter_fault_positions,
)
from .logic_sim import vector_from_string


class PackedTransitionSimulator:
    """Parallel transition-fault simulator (see module docstring).

    API-compatible with :class:`PackedFaultSimulator` for everything the
    generators and compactors use: ``step``/``run``/``reset``,
    ``save_state``/``restore_state``, ``machine_state``/
    ``load_machine_states``, ``ff_effect_masks``, ``good_net_value``/
    ``net_effect_mask``, ``faults_from_mask`` and the ``fault_mask``/
    ``faults`` attributes.
    """

    def __init__(self, circuit: Circuit, faults: Sequence[TransitionFault]):
        self.circuit = circuit
        self.faults = list(faults)
        self.num_machines = len(self.faults) + 1
        self.full_mask = (1 << self.num_machines) - 1
        self.fault_mask = self.full_mask & ~1

        topology = compiled_topology(circuit)
        self._index = topology.index
        self._pi_idx = [idx for idx, _n in topology.pi]
        self._po_idx = [self._index[n] for n in circuit.outputs]
        self._flop_q = topology.flop_q
        self._flop_d = [self._index[f.d] for f in circuit.flops]

        # Injection tables: net index -> (slow_to_rise bits, slow_to_fall bits)
        site_masks: Dict[int, List[int]] = {}
        for position, fault in enumerate(self.faults):
            if fault.net not in self._index:
                raise ValueError(f"fault on unknown net: {fault}")
            entry = site_masks.setdefault(self._index[fault.net], [0, 0])
            entry[0 if fault.slow_to == RISE else 1] |= 1 << (position + 1)
        self._sites: List[Tuple[int, int, int]] = [
            (idx, masks[0], masks[1]) for idx, masks in site_masks.items()
        ]
        gate_outputs = {self._index[g.output] for g in circuit.gates}
        self._source_sites = [
            entry for entry in self._sites if entry[0] not in gate_outputs
        ]
        # The topological gate list cut after every site gate: each run
        # is evaluated in one sweep, then its site (if any) is injected
        # before any later gate reads it.
        self._runs: List[Tuple[tuple, Optional[int], List[int]]] = []
        run: list = []
        for code, out_idx, in_idx in topology.gates:
            run.append((code, out_idx, in_idx, None, None))
            if out_idx in site_masks:
                self._runs.append((tuple(run), out_idx, site_masks[out_idx]))
                run = []
        if run:
            self._runs.append((tuple(run), None, [0, 0]))
        # Previous-cycle (post-injection) planes per monitored net.
        self._prev: Dict[int, Tuple[int, int]] = {}

        self._ones = [0] * topology.num_nets
        self._zeros = [0] * topology.num_nets
        self._state: List[Tuple[int, int]] = [(0, 0)] * len(circuit.flops)
        self.time = 0

    # -- state management -----------------------------------------------------

    def reset(self) -> None:
        """All flip-flops to X; transition history cleared."""
        self._state = [(0, 0)] * len(self._state)
        self._prev = {}
        self.time = 0

    def save_state(self):
        """Snapshot state + per-site transition history + time."""
        return (list(self._state), dict(self._prev), self.time)

    def restore_state(self, token) -> None:
        """Restore a :meth:`save_state` snapshot."""
        state, prev, time = token
        self._state = list(state)
        self._prev = dict(prev)
        self.time = time

    @staticmethod
    def remap_state_token(token, kept_bits: Sequence[int]):
        """Project a :meth:`save_state` token onto a narrower packing
        (see :meth:`PackedFaultSimulator.remap_state_token`); the
        per-site transition history is projected along with the state."""
        state, prev, time = token

        def project(pair):
            ones, zeros = pair
            new_ones = new_zeros = 0
            for new_bit, old_bit in enumerate(kept_bits):
                new_ones |= ((ones >> old_bit) & 1) << new_bit
                new_zeros |= ((zeros >> old_bit) & 1) << new_bit
            return (new_ones, new_zeros)

        return (
            [project(pair) for pair in state],
            {idx: project(pair) for idx, pair in prev.items()},
            time,
        )

    def load_machine_states(self, states: Sequence[Sequence[int]]) -> None:
        """Load a scalar flip-flop state per machine (history cleared, so
        the next cycle cannot launch at any site)."""
        if len(states) != self.num_machines:
            raise ValueError(f"need {self.num_machines} per-machine states")
        planes = []
        for flop_index in range(len(self._state)):
            ones = zeros = 0
            for machine, state in enumerate(states):
                value = state[flop_index]
                if value == ONE:
                    ones |= 1 << machine
                elif value == ZERO:
                    zeros |= 1 << machine
            planes.append((ones, zeros))
        self._state = planes
        self._prev = {}

    def machine_state(self, machine: int) -> Tuple[int, ...]:
        """Scalar flip-flop values of one machine (0 = fault-free)."""
        bit = 1 << machine
        return tuple(
            ONE if ones & bit else ZERO if zeros & bit else X
            for ones, zeros in self._state
        )

    def good_state(self) -> Tuple[int, ...]:
        """Fault-free flip-flop values."""
        return self.machine_state(0)

    # -- queries ------------------------------------------------------------------

    def ff_effect_masks(self) -> List[int]:
        """Per flip-flop: machines holding the opposite binary value of
        the fault-free machine (scan-out-observable effects)."""
        result = []
        for ones, zeros in self._state:
            if ones & 1:
                result.append(zeros & self.fault_mask)
            elif zeros & 1:
                result.append(ones & self.fault_mask)
            else:
                result.append(0)
        return result

    def good_net_value(self, net: str) -> int:
        """Fault-free value of ``net`` as of the last step."""
        idx = self._index[net]
        if self._ones[idx] & 1:
            return ONE
        if self._zeros[idx] & 1:
            return ZERO
        return X

    def net_effect_mask(self, net: str) -> int:
        """Machines whose ``net`` value opposes the fault-free one."""
        idx = self._index[net]
        ones, zeros = self._ones[idx], self._zeros[idx]
        if ones & 1:
            return zeros & self.fault_mask
        if zeros & 1:
            return ones & self.fault_mask
        return 0

    def faults_from_mask(self, mask: int) -> List[TransitionFault]:
        """Decode a detection mask into fault objects."""
        faults = self.faults
        return [faults[position] for position in iter_fault_positions(mask)]

    def good_outputs(self) -> Tuple[int, ...]:
        """Fault-free primary output values of the last step."""
        result = []
        for idx in self._po_idx:
            if self._ones[idx] & 1:
                result.append(ONE)
            elif self._zeros[idx] & 1:
                result.append(ZERO)
            else:
                result.append(X)
        return tuple(result)

    # -- simulation -------------------------------------------------------------------

    def _inject(self, idx: int, ones: int, zeros: int,
                rise_mask: int, fall_mask: int) -> Tuple[int, int]:
        """Dynamic gross-delay injection at one monitored net."""
        prev_ones, prev_zeros = self._prev.get(idx, (0, 0))
        if rise_mask:
            # Machines that were 0 and now compute 1: hold 0.
            launch = prev_zeros & ones & rise_mask
            if launch:
                ones &= ~launch
                zeros |= launch
        if fall_mask:
            launch = prev_ones & zeros & fall_mask
            if launch:
                zeros &= ~launch
                ones |= launch
        return ones, zeros

    def step(self, vector: Sequence[int]) -> int:
        """Apply one vector; return newly-detected machine mask."""
        if isinstance(vector, str):
            vector = vector_from_string(vector)
        ones, zeros = self._ones, self._zeros
        full = self.full_mask

        for idx, value in zip(self._pi_idx, vector):
            if value == ONE:
                ones[idx], zeros[idx] = full, 0
            elif value == ZERO:
                ones[idx], zeros[idx] = 0, full
            else:
                ones[idx], zeros[idx] = 0, 0
        for idx, (so, sz) in zip(self._flop_q, self._state):
            ones[idx], zeros[idx] = so, sz

        # Flip-flop outputs and primary inputs are sites too: inject
        # before combinational evaluation.
        for idx, rise_mask, fall_mask in self._source_sites:
            ones[idx], zeros[idx] = self._inject(
                idx, ones[idx], zeros[idx], rise_mask, fall_mask
            )

        for run, site, (rise_mask, fall_mask) in self._runs:
            _eval_gates(run, ones, zeros, full)
            if site is not None:
                ones[site], zeros[site] = self._inject(
                    site, ones[site], zeros[site], rise_mask, fall_mask)

        # Remember post-injection values for next cycle's launch checks.
        for idx, _r, _f in self._sites:
            self._prev[idx] = (ones[idx], zeros[idx])

        detected = 0
        for idx in self._po_idx:
            o, z = ones[idx], zeros[idx]
            if o & 1:
                detected |= z
            elif z & 1:
                detected |= o

        self._state = [(ones[d], zeros[d]) for d in self._flop_d]
        self.time += 1
        return detected & self.fault_mask

    def run(self, vectors: Iterable[Sequence[int]],
            stop_when_all_detected: bool = False,
            reset: bool = True) -> FaultSimResult:
        """Simulate a sequence; record first-detection times."""
        if reset:
            self.reset()
        result = FaultSimResult(faults=list(self.faults))
        faults = self.faults
        remaining = self.fault_mask
        for t, vector in enumerate(vectors):
            newly = self.step(vector) & remaining
            if newly:
                remaining &= ~newly
                for position in iter_fault_positions(newly):
                    result.detection_time[faults[position]] = t
            result.num_vectors = t + 1
            if stop_when_all_detected and remaining == 0:
                break
        return result
