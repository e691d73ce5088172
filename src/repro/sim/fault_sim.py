"""Bit-parallel (packed) sequential stuck-at fault simulator.

This is the workhorse of the whole reproduction: test generation,
translation verification, restoration and omission compaction all reduce
to "simulate this sequence against these faults".  Sequential fault
simulation in pure Python is only viable bit-parallel, so every net
carries a pair of arbitrary-precision integers ``(ones, zeros)``; bit
``f`` of each plane belongs to machine ``f``:

* machine 0 is the **fault-free** circuit,
* machine ``f >= 1`` simulates single fault ``faults[f-1]``.

A 5000-fault circuit therefore simulates 5001 machines per gate
evaluation at the cost of a handful of bitwise operations on ~80-word
integers — the classic parallel-fault scheme of Seshu, generalized to
three-valued logic.

Both fault simulators (this one and the vector kernel) subclass
:class:`SimBackend`, which holds that machine/bit rule, the
whole-sequence query loop and the plane read-outs once; a simulator adds
its fault injection and :meth:`~SimBackend.step`.

Fault injection
---------------
Faults are compiled to per-site masks and *forced* at the right moment:

* PI / gate-output / flip-flop-output **stem** faults — applied when the
  net value is produced (PI load, gate evaluation, state read),
* gate-input / flip-flop-D / primary-output **branch** faults — applied
  on the consumer side only, leaving the stem value intact for the other
  branches (exact fanout-branch semantics).

Detection
---------
Fault ``f`` is detected at cycle ``t`` when some primary output has a
*binary* fault-free value and machine ``f`` asserts the opposite binary
value in the same cycle.  An X in either machine never counts — the
standard pessimistic (guaranteed-detection) criterion.

Flip-flops power up to X in every machine.

Lanes
-----
:meth:`PackedFaultSimulator.lane_step` applies ``k`` different vectors
from the *same* state in one pass: the machine list is replicated ``k``
times across the packed words (lane ``j`` owns bits ``j*M .. j*M+M-1``
for ``M = num_machines``), so one gate sweep evaluates every candidate.
:meth:`~PackedFaultSimulator.select_lane` then commits one lane's next
state.  The ATPG beam search uses this to score all of a step's
candidate vectors at once.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from operator import itemgetter
from typing import (Callable, Collection, Dict, Iterable, List, NamedTuple,
                    Optional, Sequence, Tuple)

from ..circuit.gates import ONE, X, ZERO
from ..circuit.netlist import Circuit
from ..faults.model import STEM, Fault
from ..obs import context as obs
from ..obs import ledger
from .logic_sim import vector_from_string

# Gate kind codes for the dispatch in the inner loop.
_AND, _NAND, _OR, _NOR, _NOT, _BUF, _XOR, _XNOR = range(8)
_KIND_CODE = {
    "AND": _AND, "NAND": _NAND, "OR": _OR, "NOR": _NOR,
    "NOT": _NOT, "BUF": _BUF, "XOR": _XOR, "XNOR": _XNOR,
}


def compile_injection_masks(faults: Sequence[Fault], index):
    """Build injection masks for a packed fault list: stem masks by net,
    branch masks by (consumer, pin).  Each mask is
    ``(force_ones, force_zeros)`` with bit ``i + 1`` owned by
    ``faults[i]``.  Shared by every backend so the machine/bit
    convention cannot drift between implementations."""
    stem: Dict[str, List[int]] = {}
    branch: Dict[Tuple[str, int], List[int]] = {}
    for position, fault in enumerate(faults):
        bit = 1 << (position + 1)
        if fault.kind == STEM:
            if fault.net not in index:
                raise ValueError(f"fault on unknown net: {fault}")
            entry = stem.setdefault(fault.net, [0, 0])
        else:  # BRANCH; Fault validates kinds
            entry = branch.setdefault((fault.consumer, fault.pin), [0, 0])
        # entry[0] accumulates force-to-1 bits (SA1 faults),
        # entry[1] accumulates force-to-0 bits (SA0 faults).
        entry[fault.stuck_at ^ 1] |= bit
    stem_masks = {net: (m[0], m[1]) for net, m in stem.items()}
    branch_masks = {key: (m[0], m[1]) for key, m in branch.items()}
    return stem_masks, branch_masks


def iter_fault_positions(mask: int):
    """Yield 0-based fault-list indices for the set machine bits of a
    detection mask (bit 0, the fault-free machine, is never yielded), in
    ascending order, by one ``str.find`` scan of its bit string: linear
    in the width, where peeling bits off the int costs a width per bit."""
    bits = format(mask >> 1, "b")[::-1]
    find = bits.find
    position = find("1")
    while position >= 0:
        yield position
        position = find("1", position + 1)


def bit_gather(bits: Sequence[int]) -> Callable[[int], int]:
    """A function mapping ``mask`` to the mask whose bit ``j`` is bit
    ``bits[j]`` of ``mask``: one :func:`operator.itemgetter` pick from its
    bit string, linear in the width however many bits are set."""
    if not bits:
        return lambda mask: 0
    width = max(bits) + 1
    low = (1 << width) - 1
    spec = f"0{width}b"
    # Indices into the most-significant-first string, highest bit first.
    pick = itemgetter(*[width - 1 - bit for bit in reversed(bits)])

    def gather(mask: int) -> int:
        return int("".join(pick(format(mask & low, spec))), 2)

    return gather


class KernelProgram(NamedTuple):
    """The vector kernel's fault-free program: int32 tables in
    topological order, force columns at -1.  ``gates`` holds a ``(kind,
    out_net, slot_off, nin, out_force, shared_source)`` record per gate,
    ``slots`` a ``(source_net, pin_force)`` pair per gate input, and
    ``gate_of`` each gate's record number by output net index.  A gate
    with ``shared_source`` has one net on two pins, so its branch faults
    force a copy of the source row, not the row itself."""

    gates: array
    slots: array
    max_arity: int
    gate_of: Dict[int, int]


class CompiledTopology:
    """Per-circuit flat arrays shared by every simulator instance.

    The net indexing, PI/PO/flip-flop index lists and the per-gate
    ``(kind_code, output_index, input_indices)`` tuples depend only on
    the circuit, not on the packed fault list — compiling them once and
    caching on the circuit makes repacking a simulator to a smaller
    fault set (fault dropping) cheap even for large netlists.  The vector
    kernel's tables (:meth:`kernel_program`) are built from them on
    first use.
    """

    __slots__ = ("index", "num_nets", "pi", "po", "flop_q", "flop_d", "gates",
                 "_kernel")

    def __init__(self, circuit: Circuit):
        nets = circuit.nets()
        index = {net: i for i, net in enumerate(nets)}
        self.index = index
        self.num_nets = len(nets)
        self.pi = [(index[n], n) for n in circuit.inputs]
        self.po = [(index[n], f"PO:{n}") for n in circuit.outputs]
        self.flop_q = [index[f.q] for f in circuit.flops]
        self.flop_d = [(index[f.d], f.q) for f in circuit.flops]
        self.gates = [
            (
                _KIND_CODE[gate.kind],
                index[gate.output],
                tuple(index[n] for n in gate.inputs),
            )
            for gate in circuit.topo_gates
        ]
        self._kernel: Optional[KernelProgram] = None

    def kernel_program(self) -> KernelProgram:
        """The vector kernel's fault-free tables (built once)."""
        if self._kernel is None:
            gates = array("i")
            slots = array("i")
            for code, out_idx, in_idx in self.gates:
                shared = int(len(set(in_idx)) < len(in_idx))
                gates.extend((code, out_idx, len(slots) // 2, len(in_idx),
                              -1, shared))
                for i in in_idx:
                    slots.extend((i, -1))
            self._kernel = KernelProgram(
                gates, slots,
                max((len(in_idx) for _c, _o, in_idx in self.gates),
                    default=1),
                {out_idx: g for g, (_c, out_idx, _i) in enumerate(self.gates)})
        return self._kernel


def compiled_topology(circuit: Circuit) -> CompiledTopology:
    """The (cached) flat-array compilation of ``circuit``.

    The cache is keyed on the circuit's content fingerprint: circuits
    are immutable by convention, but nothing in Python enforces that,
    and an in-place netlist edit (synth passes, tests) used to keep
    serving the stale topology.  The fingerprint itself is memoized on
    tuple identity, so the common (unmutated) path stays O(1).
    """
    from ..cache.fingerprint import circuit_fingerprint

    fingerprint = circuit_fingerprint(circuit)
    cached = getattr(circuit, "_packed_topology", None)
    if cached is not None:
        cached_fp, topology = cached
        if cached_fp == fingerprint:
            return topology
    topology = CompiledTopology(circuit)
    circuit._packed_topology = (fingerprint, topology)
    return topology


def _eval_gates(gates, ones, zeros, full: int) -> None:
    """Evaluate compiled gates in topological order over the packed
    ``(ones, zeros)`` planes, in place — the one home of the
    three-valued gate formulas.

    Each gate is ``(code, out_idx, in_idx, pin_forces, out_mask)``.
    ``pin_forces`` (None for fault-free pins) lists
    ``(scratch_idx, src_idx, force_ones, force_zeros)``: the branch
    fault's forced copy of input ``src_idx`` is written to scratch slot
    ``scratch_idx``, which ``in_idx`` reads in place of the stem, so the
    stem stays intact for the other branches.  ``out_mask`` forces the
    output stem.  ``full`` is the all-machines mask.
    """
    for code, out_idx, in_idx, pin_forces, out_mask in gates:
        if pin_forces is not None:
            for scratch, src, m1, m0 in pin_forces:
                ones[scratch] = (ones[src] | m1) & ~m0
                zeros[scratch] = (zeros[src] | m0) & ~m1
        if code == _NOT:
            o, z = zeros[in_idx[0]], ones[in_idx[0]]
        elif code <= _NAND:  # AND / NAND
            o, z = full, 0
            for i in in_idx:
                o &= ones[i]
                z |= zeros[i]
            o &= ~z
            if code == _NAND:
                o, z = z, o
        elif code <= _NOR:  # OR / NOR
            o, z = 0, full
            for i in in_idx:
                o |= ones[i]
                z &= zeros[i]
            z &= ~o
            if code == _NOR:
                o, z = z, o
        elif code == _BUF:
            o, z = ones[in_idx[0]], zeros[in_idx[0]]
        else:  # XOR / XNOR
            o, z = ones[in_idx[0]], zeros[in_idx[0]]
            for i in in_idx[1:]:
                b1, b0 = ones[i], zeros[i]
                o, z = (o & b0) | (z & b1), (o & b1) | (z & b0)
            if code == _XNOR:
                o, z = z, o
        if out_mask is not None:
            m1, m0 = out_mask
            o = (o | m1) & ~m0
            z = (z | m0) & ~m1
        ones[out_idx] = o
        zeros[out_idx] = z


class _LaneTables(NamedTuple):
    """The injection tables of one simulator replicated over ``k``
    lanes (every mask multiplied by the repunit ``rep``)."""

    rep: int             # bit j*M set for every lane j
    fields: List[int]    # lane j's all-machines mask, per lane
    full: int            # every bit of every lane
    fault: int           # every fault machine of every lane
    pi_masks: list
    flop_q_masks: list
    flop_d_masks: list
    po_masks: list
    gates: list


@dataclass
class FaultSimResult:
    """Outcome of simulating one test sequence against a fault list.

    Treated as immutable once the simulation that built it returns: the
    ``detected``/``undetected`` partitions are computed once on first
    access and cached (they used to be rebuilt — an O(faults) scan — on
    every property read, which hot loops in compaction paid repeatedly).
    """

    faults: List[Fault]
    detection_time: Dict[Fault, int] = field(default_factory=dict)
    num_vectors: int = 0
    _detected: Optional[List[Fault]] = field(
        default=None, init=False, repr=False, compare=False)
    _undetected: Optional[List[Fault]] = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def detected_set(self) -> Dict[Fault, int]:
        """The detection map itself — membership is the O(1) detected
        test; exposed under the name the partitions derive from."""
        return self.detection_time

    @property
    def detected(self) -> List[Fault]:
        if self._detected is None:
            detected_set = self.detection_time
            self._detected = [f for f in self.faults if f in detected_set]
        return self._detected

    @property
    def undetected(self) -> List[Fault]:
        if self._undetected is None:
            detected_set = self.detection_time
            self._undetected = [f for f in self.faults if f not in detected_set]
        return self._undetected

    def coverage(self) -> float:
        """Fault coverage in percent (paper's ``fcov`` column)."""
        if not self.faults:
            return 100.0
        return 100.0 * len(self.detected_set) / len(self.faults)




def words_of(mask: int) -> int:
    """Leading 64-bit machine words holding every machine of ``mask`` —
    at least 1, for the fault-free machine every detection compares
    against."""
    return max(1, (mask.bit_length() + 63) >> 6)


class Query(NamedTuple):
    """What one :meth:`SimBackend.query` simulated.

    ``end`` is the cycle after the last step and ``seen`` the machines
    detected by then, the query's starting ``seen`` included.
    ``word_cycles`` sums the machine words stepped per cycle.  ``log``
    holds one ``(cycle, mask)`` per cycle that detected machines not
    seen before, all of them, wanted or not.  ``checkpoints`` holds one
    ``(cycle, token, width, logged, seen)`` per snapshot: the
    :meth:`~SimBackend.save_state` token after ``cycle`` cycles, the
    words stepped then, and the ``log`` length and ``seen`` mask at
    that cycle.
    """

    end: int
    seen: int
    word_cycles: int
    log: List[Tuple[int, int]]
    checkpoints: List[Tuple[int, object, int, int, int]]


class SimBackend:
    """The contract every fault simulator keeps, written once.

    Machine 0 is the fault-free circuit and machine ``i + 1`` simulates
    ``faults[i]``: bit ``i + 1`` of every plane and detection mask is
    ``faults[i]``.  This class owns that rule (:meth:`faults_from_mask`,
    :meth:`machine_of`, :meth:`mask_of`), whole-sequence simulation
    (:meth:`query`, and :meth:`run` and :meth:`detects_all` on top of
    it) and every read-out of the planes.

    A backend supplies :meth:`step`, and may override :meth:`query`
    with a faster loop that returns the same.  The flip-flop state is
    stored here as one ``(ones, zeros)`` int pair per flip-flop in
    ``_state``, and a step leaves each net's planes in
    ``_ones``/``_zeros``; a backend that stores them otherwise overrides
    the storage hooks (``_state_pairs``, ``_set_state_pairs``,
    ``_net_pair``) and the state-token methods.  ``_po_masks`` holds the branch-fault force of
    each primary output, applied where a read-out observes one.

    The simulator is stateful across :meth:`step` calls; call
    :meth:`reset` between sequences.
    """

    def __init__(self, circuit: Circuit, faults: Sequence[Fault]):
        self.circuit = circuit
        self.faults = list(faults)
        self.num_machines = len(self.faults) + 1
        self.full_mask = (1 << self.num_machines) - 1
        self.fault_mask = self.full_mask & ~1  # every machine except fault-free
        # The fault-independent flat arrays are compiled once per circuit
        # and shared; only the injection tables depend on the fault list.
        self._topology = compiled_topology(circuit)
        self._index = self._topology.index
        self._po = self._topology.po
        self._po_masks: list = [None] * len(self._po)
        self._state: List[Tuple[int, int]] = [(0, 0)] * len(circuit.flops)
        self.time = 0
        self._machines: Optional[Dict[Fault, int]] = None

    def step(self, vector: Sequence[int]) -> int:
        """Apply one vector; return the mask of machines detected this cycle.

        The returned mask has bit ``f`` set when machine ``f`` produced a
        binary value opposite to the fault-free machine on some primary
        output this cycle.  Bit 0 is never set.  Flip-flops advance.
        """
        raise NotImplementedError

    # -- the fault <-> bit rule ------------------------------------------------

    def faults_from_mask(self, mask: int) -> List[Fault]:
        """Decode a detection mask into the fault objects it covers."""
        faults = self.faults
        return [faults[position] for position in iter_fault_positions(mask)]

    def _machine_map(self) -> Dict[Fault, int]:
        """fault -> machine, built on first use and kept for the
        simulator's lifetime."""
        if self._machines is None:
            self._machines = {f: i + 1 for i, f in enumerate(self.faults)}
        return self._machines

    def machine_of(self, fault: Fault) -> int:
        """Machine (bit position) simulating ``fault``."""
        return self._machine_map()[fault]

    def mask_of(self, faults: Collection[Fault]) -> int:
        """Mask covering ``faults`` (each must be packed here).  A few
        are OR-ed in one by one; more are set in one bit string, as each
        OR costs a whole width."""
        machines = self._machine_map()
        if len(faults) < 128:
            mask = 0
            for fault in faults:
                mask |= 1 << machines[fault]
            return mask
        bits = [machines[fault] for fault in faults]
        string = bytearray(b"0") * (max(bits) + 1)  # most significant first
        for bit in bits:
            string[~bit] = 49  # ord("1")
        return int(string, 2)

    # -- state -----------------------------------------------------------------

    def _state_pairs(self) -> List[Tuple[int, int]]:
        """The flip-flop planes, one ``(ones, zeros)`` pair per flop."""
        return self._state

    def _set_state_pairs(self, pairs: List[Tuple[int, int]]) -> None:
        self._state = pairs

    def _net_pair(self, idx: int) -> Tuple[int, int]:
        """The planes of net ``idx`` as of the last :meth:`step`."""
        return self._ones[idx], self._zeros[idx]

    def reset(self) -> None:
        """All flip-flops back to X in every machine; time to 0."""
        self._set_state_pairs([(0, 0)] * len(self.circuit.flops))
        self.time = 0

    def load_state(self, values: Sequence[int]) -> None:
        """Force an identical binary/X state into every machine (used by
        tests and by scan-based tooling that models a known state)."""
        if len(values) != len(self.circuit.flops):
            raise ValueError(f"need {len(self.circuit.flops)} state values")
        full = self.full_mask
        table = {ZERO: (0, full), ONE: (full, 0), X: (0, 0)}
        self._set_state_pairs([table[v] for v in values])

    def load_machine_states(self, states: Sequence[Sequence[int]]) -> None:
        """Load a distinct scalar state per machine.

        ``states[m]`` is the flip-flop state of machine ``m``; exactly
        ``num_machines`` states are required.  Used to hand a fault's
        accumulated sequential state from one simulator to another (e.g.
        from the global fault-dropping simulator into a per-fault search
        simulator).
        """
        if len(states) != self.num_machines:
            raise ValueError(f"need {self.num_machines} per-machine states")
        planes = []
        for flop_index in range(len(self.circuit.flops)):
            ones = zeros = 0
            for machine, state in enumerate(states):
                value = state[flop_index]
                if value == ONE:
                    ones |= 1 << machine
                elif value == ZERO:
                    zeros |= 1 << machine
            planes.append((ones, zeros))
        self._set_state_pairs(planes)

    def save_state(self):
        """Snapshot the (packed) flip-flop state and time; the returned
        token is opaque and only valid for this simulator instance."""
        return (list(self._state), self.time)

    def restore_state(self, token) -> None:
        """Restore a snapshot taken by :meth:`save_state`."""
        state, time = token
        self._state = list(state)
        self.time = time

    @staticmethod
    def remap_state_token(token, kept_bits: Sequence[int]):
        """Project a :meth:`save_state` token onto a narrower packing.

        ``kept_bits[j]`` is the old machine bit that becomes machine
        ``j`` in the new packing.  Machines are simulated independently,
        so the projected token restored into a simulator packed over the
        kept faults is bit-identical to having simulated that narrower
        packing from the start — which lets a session keep its
        checkpoints across fault-dropping repacks.
        """
        state, time = token
        gather = bit_gather(kept_bits)
        return ([(gather(ones), gather(zeros)) for ones, zeros in state],
                time)

    # -- plane read-outs -------------------------------------------------------

    def machine_state(self, machine: int) -> Tuple[int, ...]:
        """Scalar flip-flop values of one machine (0 = fault-free)."""
        bit = 1 << machine
        return tuple(
            ONE if ones & bit else ZERO if zeros & bit else X
            for ones, zeros in self._state_pairs()
        )

    def good_state(self) -> Tuple[int, ...]:
        """Fault-free flip-flop values (``ZERO``/``ONE``/``X``)."""
        return self.machine_state(0)

    def ff_effect_masks(self) -> List[int]:
        """Per flip-flop: mask of machines holding the *opposite binary*
        value of the fault-free machine.

        This is the "fault effect reached flip-flop i" predicate of
        Section 2: a fault whose bit is set here would be observed if the
        chain were scanned out starting now.
        """
        fault_mask = self.fault_mask
        result = []
        for ones, zeros in self._state_pairs():
            if ones & 1:
                result.append(zeros & fault_mask)
            elif zeros & 1:
                result.append(ones & fault_mask)
            else:
                result.append(0)
        return result

    def good_net_value(self, net: str) -> int:
        """Fault-free value of ``net`` as of the last :meth:`step`."""
        ones, zeros = self._net_pair(self._index[net])
        return ONE if ones & 1 else ZERO if zeros & 1 else X

    def net_effect_mask(self, net: str) -> int:
        """Machines whose value at ``net`` is the opposite binary value of
        the fault-free machine (as of the last :meth:`step`)."""
        ones, zeros = self._net_pair(self._index[net])
        if ones & 1:
            return zeros & self.fault_mask
        if zeros & 1:
            return ones & self.fault_mask
        return 0

    def good_outputs(self) -> Tuple[int, ...]:
        """Fault-free primary output values of the *last* :meth:`step`."""
        result = []
        for idx, _po in self._po:
            ones, zeros = self._net_pair(idx)
            result.append(ONE if ones & 1 else ZERO if zeros & 1 else X)
        return tuple(result)

    def detecting_outputs(self, mask: int) -> List[str]:
        """Primary-output names where the machines in ``mask`` produced
        a value opposite to the fault-free machine on the *last*
        :meth:`step` (the observation points of those detections).
        Valid until the next step/reset; used by the fault ledger."""
        observed: List[str] = []
        for (idx, name), po_mask in zip(self._po, self._po_masks):
            o, z = self._net_pair(idx)
            if po_mask is not None:
                m1, m0 = po_mask
                o = (o | m1) & ~m0
                z = (z | m0) & ~m1
            if o & 1:
                hit = z
            elif z & 1:
                hit = o
            else:
                hit = 0
            if hit & mask:
                observed.append(name)
        return observed

    # -- whole sequences -------------------------------------------------------

    #: Leading machine words :meth:`step` simulates; :meth:`query` sets
    #: it, and only the vector kernel narrows to it.
    active_words: int

    def query(
        self,
        vectors: Iterable[Sequence[int]],
        start: int,
        seen: int,
        wanted: int,
        stop_early: bool = False,
        narrow: bool = False,
        grid: Optional[Tuple[int, int]] = None,
    ) -> Query:
        """Step ``vectors`` from the current state as cycles ``start``,
        ``start + 1``, ...: the one loop behind sessions, :meth:`run`
        and :meth:`detects_all`.

        ``seen`` is the mask of machines already detected, which are
        never logged again, and ``wanted`` the machines the caller asks
        about.  With ``stop_early`` the query ends as soon as every
        ``wanted`` machine is seen, checked before each step, so a
        covered query costs no cycle.  With ``narrow`` it steps only the
        words up to the one holding its highest unseen ``wanted``
        machine and sheds words as those fall; otherwise every word.
        ``grid = (interval, prefix)`` snapshots the state after each
        cycle that is a multiple of ``interval`` or equals ``prefix``,
        and after the last one; ``None`` takes no snapshot.

        This is the reference; the vector kernel overrides it with one
        C call.
        """
        remaining = wanted & ~seen
        width = (words_of(remaining) if narrow
                 else (self.num_machines + 63) >> 6)
        self.active_words = width
        log: List[Tuple[int, int]] = []
        checkpoints: list = []
        word_cycles = 0
        t = start
        for vector in vectors:
            if stop_early and not remaining:
                break
            newly = self.step(vector) & ~seen
            word_cycles += width
            t += 1
            if newly:
                seen |= newly
                log.append((t - 1, newly))
                if remaining & newly:
                    remaining &= ~newly
                    if narrow:
                        # Shed the words no unseen target lives in.
                        width = words_of(remaining)
                        self.active_words = width
            if grid is not None and (t % grid[0] == 0 or t == grid[1]):
                checkpoints.append(
                    (t, self.save_state(), width, len(log), seen))
        if grid is not None and t > start and (
                not checkpoints or checkpoints[-1][0] != t):
            checkpoints.append((t, self.save_state(), width, len(log), seen))
        return Query(t, seen, word_cycles, log, checkpoints)

    def run(
        self,
        vectors: Iterable[Sequence[int]],
        stop_when_all_detected: bool = False,
        reset: bool = True,
    ) -> FaultSimResult:
        """Simulate a whole sequence; record first-detection times.

        ``stop_when_all_detected`` ends the run once every packed fault
        has been observed (used by detection oracles in compaction,
        where only a target subset matters).
        """
        if reset:
            self.reset()
        result = FaultSimResult(faults=list(self.faults))
        faults = self.faults
        detection_time = result.detection_time
        query = self.query(vectors, 0, 0, self.fault_mask,
                           stop_early=stop_when_all_detected)
        for t, newly in query.log:
            for position in iter_fault_positions(newly):
                detection_time[faults[position]] = t
        result.num_vectors = query.end
        obs.incr("faultsim.runs")
        obs.incr("faultsim.cycles", result.num_vectors)
        if result.detection_time:
            obs.incr("faultsim.faults_dropped", len(result.detection_time))
        if ledger.enabled():
            ledger.record("faultsim.run", vectors=result.num_vectors,
                          detected=len(result.detection_time),
                          packed=len(faults))
        return result

    def detects_all(self, vectors: Sequence[Sequence[int]]) -> bool:
        """True when the sequence detects *every* packed fault."""
        self.reset()
        fault_mask = self.fault_mask
        seen = self.query(vectors, 0, 0, fault_mask, stop_early=True).seen
        return seen & fault_mask == fault_mask


class PackedFaultSimulator(SimBackend):
    """Parallel-fault three-valued sequential fault simulator.

    Parameters
    ----------
    circuit:
        The circuit to simulate (typically ``C_scan``).
    faults:
        Faults to pack, one machine each.  Order defines bit positions
        (bit ``i + 1`` simulates ``faults[i]``).

    Adds to :class:`SimBackend` its static injection tables, the packed
    :meth:`step` and the lane step of the ATPG beam search.
    """

    #: Name this class is registered under in :mod:`repro.sim.backend`.
    backend_name = "packed"

    def __init__(self, circuit: Circuit, faults: Sequence[Fault]):
        super().__init__(circuit, faults)
        topology = self._topology
        self._pi = topology.pi
        self._flop_q = topology.flop_q
        self._flop_d = topology.flop_d

        stem_masks, branch_masks = compile_injection_masks(self.faults,
                                                           self._index)
        self._pi_masks = [stem_masks.get(n) for _i, n in self._pi]
        self._po_masks = [branch_masks.get((po, 0)) for _i, po in self._po]
        self._flop_q_masks = [stem_masks.get(f.q) for f in circuit.flops]
        self._flop_d_masks = [branch_masks.get((f.q, 0)) for f in circuit.flops]

        # Gate-input branch faults read a forced copy of their stem from a
        # scratch slot past the last net (see _eval_gates).
        gates = []
        scratch = topology.num_nets
        for gate, (code, out_idx, in_idx) in zip(circuit.topo_gates,
                                                 topology.gates):
            pin_forces = []
            reads = list(in_idx)
            for pin, src in enumerate(in_idx):
                mask = branch_masks.get((gate.output, pin))
                if mask is not None:
                    pin_forces.append((scratch, src) + mask)
                    reads[pin] = scratch
                    scratch += 1
            gates.append((
                code,
                out_idx,
                tuple(reads),
                tuple(pin_forces) if pin_forces else None,
                stem_masks.get(gate.output),
            ))
        self._gates = gates

        self._ones = [0] * scratch
        self._zeros = [0] * scratch
        # Replicated injection tables per lane count, and the outcome of
        # the last lane step awaiting select_lane.
        self._lane_tables: Dict[int, _LaneTables] = {}
        self._lane_next: Tuple[List[Tuple[int, int]], int] = ([], 0)

    # -- simulation --------------------------------------------------------------

    def step(self, vector: Sequence[int]) -> int:
        if isinstance(vector, str):
            vector = vector_from_string(vector)
        ones = self._ones
        zeros = self._zeros
        full = self.full_mask

        for (idx, _name), mask, value in zip(self._pi, self._pi_masks, vector):
            if value == ONE:
                o, z = full, 0
            elif value == ZERO:
                o, z = 0, full
            else:
                o, z = 0, 0
            if mask is not None:
                m1, m0 = mask
                o = (o | m1) & ~m0
                z = (z | m0) & ~m1
            ones[idx] = o
            zeros[idx] = z

        for idx, mask, (so, sz) in zip(self._flop_q, self._flop_q_masks, self._state):
            if mask is not None:
                m1, m0 = mask
                so = (so | m1) & ~m0
                sz = (sz | m0) & ~m1
            ones[idx] = so
            zeros[idx] = sz

        _eval_gates(self._gates, ones, zeros, full)

        detected = 0
        for (idx, _po), mask in zip(self._po, self._po_masks):
            o, z = ones[idx], zeros[idx]
            if mask is not None:
                m1, m0 = mask
                o = (o | m1) & ~m0
                z = (z | m0) & ~m1
            if o & 1:
                detected |= z
            elif z & 1:
                detected |= o

        new_state = []
        for (d_idx, _q), mask in zip(self._flop_d, self._flop_d_masks):
            v1, v0 = ones[d_idx], zeros[d_idx]
            if mask is not None:
                m1, m0 = mask
                v1 = (v1 | m1) & ~m0
                v0 = (v0 | m0) & ~m1
            new_state.append((v1, v0))
        self._state = new_state
        self.time += 1
        return detected & self.fault_mask

    # -- lanes -----------------------------------------------------------------

    def _replicated(self, lanes: int) -> _LaneTables:
        """The injection tables widened to ``lanes`` copies of the
        machine list (cached per lane count)."""
        tables = self._lane_tables.get(lanes)
        if tables is not None:
            return tables
        width = self.num_machines
        rep = sum(1 << (j * width) for j in range(lanes))

        def wide(mask):
            return None if mask is None else (mask[0] * rep, mask[1] * rep)

        gates = []
        for code, out_idx, reads, pin_forces, out_mask in self._gates:
            if pin_forces is not None:
                pin_forces = tuple((s, src, m1 * rep, m0 * rep)
                                   for s, src, m1, m0 in pin_forces)
            gates.append((code, out_idx, reads, pin_forces, wide(out_mask)))
        tables = _LaneTables(
            rep=rep,
            fields=[self.full_mask << (j * width) for j in range(lanes)],
            full=self.full_mask * rep,
            fault=self.fault_mask * rep,
            pi_masks=[wide(m) for m in self._pi_masks],
            flop_q_masks=[wide(m) for m in self._flop_q_masks],
            flop_d_masks=[wide(m) for m in self._flop_d_masks],
            po_masks=[wide(m) for m in self._po_masks],
            gates=gates,
        )
        self._lane_tables[lanes] = tables
        return tables

    def lane_step(self, vectors: Sequence[Sequence[int]],
                  net: str) -> List[Tuple[int, int, int]]:
        """Apply ``vectors[j]`` to lane ``j``, every lane starting from
        the current state, in one bit-parallel pass.

        Returns one ``(detected, effect_flops, site)`` per lane, each
        what :meth:`step` with that vector alone would give:
        ``detected`` is the lane's detection mask in machine bits,
        ``effect_flops`` the number of flip-flops whose next state holds
        a fault effect (a nonzero :meth:`ff_effect_masks` entry) and
        ``site`` the fault-free value of ``net`` this cycle.  The
        committed state and time do not change until
        :meth:`select_lane`; net queries are undefined until the next
        :meth:`step`.
        """
        width = self.num_machines
        lanes = len(vectors)
        rep, fields, full, fault, pi_masks, flop_q_masks, flop_d_masks, \
            po_masks, gates = self._replicated(lanes)
        ones = self._ones
        zeros = self._zeros

        for (idx, _name), mask, column in zip(self._pi, pi_masks,
                                              zip(*vectors)):
            o = z = 0
            for lane_bits, value in zip(fields, column):
                if value == ONE:
                    o |= lane_bits
                elif value == ZERO:
                    z |= lane_bits
            if mask is not None:
                m1, m0 = mask
                o = (o | m1) & ~m0
                z = (z | m0) & ~m1
            ones[idx] = o
            zeros[idx] = z

        for idx, mask, (so, sz) in zip(self._flop_q, flop_q_masks,
                                       self._state):
            so *= rep
            sz *= rep
            if mask is not None:
                m1, m0 = mask
                so = (so | m1) & ~m0
                sz = (sz | m0) & ~m1
            ones[idx] = so
            zeros[idx] = sz

        _eval_gates(gates, ones, zeros, full)

        # Per lane, "good bit binary, fault bit opposite": spreading each
        # lane's good bit over its whole lane (``* machines``) turns the
        # scalar branch on ``o & 1`` into a mask.
        machines = self.full_mask
        detected = 0
        for (idx, _po), mask in zip(self._po, po_masks):
            o, z = ones[idx], zeros[idx]
            if mask is not None:
                m1, m0 = mask
                o = (o | m1) & ~m0
                z = (z | m0) & ~m1
            detected |= (z & (o & rep) * machines) | (o & (z & rep) * machines)

        effect_flops = [0] * lanes
        next_state = []
        for (d_idx, _q), mask in zip(self._flop_d, flop_d_masks):
            v1, v0 = ones[d_idx], zeros[d_idx]
            if mask is not None:
                m1, m0 = mask
                v1 = (v1 | m1) & ~m0
                v0 = (v0 | m0) & ~m1
            next_state.append((v1, v0))
            effect = ((v0 & (v1 & rep) * machines)
                      | (v1 & (v0 & rep) * machines)) & fault
            while effect:
                lane = ((effect & -effect).bit_length() - 1) // width
                effect_flops[lane] += 1
                effect &= -1 << ((lane + 1) * width)
        self._lane_next = (next_state, self.time + 1)

        site_idx = self._index[net]
        site_ones, site_zeros = ones[site_idx], zeros[site_idx]
        outcomes = []
        for lane in range(lanes):
            shift = lane * width
            if site_ones >> shift & 1:
                site = ONE
            elif site_zeros >> shift & 1:
                site = ZERO
            else:
                site = X
            outcomes.append(((detected >> shift) & self.fault_mask,
                             effect_flops[lane], site))
        return outcomes

    def select_lane(self, lane: int) -> None:
        """Commit lane ``lane`` of the last :meth:`lane_step`: its next
        state becomes the state and time advances by one, exactly as if
        :meth:`step` had applied that lane's vector."""
        state, time = self._lane_next
        shift = lane * self.num_machines
        machines = self.full_mask
        self._state = [((o >> shift) & machines, (z >> shift) & machines)
                       for o, z in state]
        self.time = time
