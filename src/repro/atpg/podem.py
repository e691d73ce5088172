"""PODEM combinational ATPG (Goel [1], with SOCRATES-style backtrace
heuristics kept deliberately simple).

PODEM searches the primary-input space only: it repeatedly derives an
*objective* (a net value needed to activate the fault or advance the
D-frontier), *backtraces* the objective to an unassigned primary input,
assigns it, and forward-implies the good and faulty machines.  Conflicts
are undone chronologically by flipping the most recent unflipped
decision.

The engine runs on combinational circuits — in this package that is the
:mod:`~repro.atpg.comb_view` of a sequential circuit, whose pseudo
primary inputs/outputs give the classic full-scan ATPG formulation.

Faults are the :class:`~repro.faults.model.Fault` objects of this
package: stem faults on any net, branch faults on gate input pins or
primary-output pins.

A complete run returns one of three verdicts:

* ``detected`` — a cube (partial PI assignment) plus the outputs where
  the fault effect appears,
* ``untestable`` — the whole decision tree was exhausted: the fault is
  provably redundant (under the engine's X-semantics),
* ``aborted`` — the backtrack limit was hit first.

Engine internals (see docs/ARCHITECTURE.md, "The PODEM engine"): the
circuit is compiled on the first run into integer net tables; implication
is event-driven with a trail that backtracking unwinds; the D-frontier
and X-path searches stay inside the fault site's fanout cone; and every
verdict is memoized per fault, reusable under any backtrack limit it
provably answers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from heapq import heappop, heappush
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..circuit.gates import CONTROLLING_VALUE, INVERTING, X
from ..circuit.netlist import Circuit
from ..faults.model import STEM, Fault
from ..obs import context as obs
from ..obs import ledger

DETECTED = "detected"
UNTESTABLE = "untestable"
ABORTED = "aborted"

# Three-valued fold tables indexed by ``3 * a + b`` (0, 1, X = 0, 1, 2).
_AND = (0, 0, 0, 0, 1, X, 0, X, X)
_OR = (0, 1, X, 1, 1, 1, X, 1, X)
_XOR = (0, 1, X, 1, 0, X, X, X, X)
_NOT = (1, 0, X)

#: Gate kind -> (fold table, output inverted).
_OPS = {
    "AND": (_AND, False), "NAND": (_AND, True),
    "OR": (_OR, False), "NOR": (_OR, True),
    "XOR": (_XOR, False), "XNOR": (_XOR, True),
    "BUF": (_AND, False), "NOT": (_AND, True),
}


def _evaluate(op, values, ins) -> int:
    """Three-valued output of a gate with fold ``op`` over ``values[ins]``
    (same semantics as :func:`repro.circuit.gates.eval_gate`)."""
    table, inverted = op
    value = values[ins[0]]
    for net in ins[1:]:
        value = table[3 * value + values[net]]
    return _NOT[value] if inverted else value


@dataclass
class PodemResult:
    """Outcome of one PODEM run."""

    status: str
    fault: Fault
    assignment: Dict[str, int] = field(default_factory=dict)
    detecting_outputs: List[str] = field(default_factory=list)
    backtracks: int = 0

    @property
    def found(self) -> bool:
        return self.status == DETECTED


def _copy(result: PodemResult) -> PodemResult:
    """A result callers may mutate without touching the memo's copy."""
    return replace(result, assignment=dict(result.assignment),
                   detecting_outputs=list(result.detecting_outputs))


class Podem:
    """Reusable PODEM engine for one combinational circuit.

    :meth:`run` / :meth:`run_multi` may be called for any number of
    faults; the circuit tables are compiled on the first call, so an
    engine that never runs costs nothing.
    """

    def __init__(self, circuit: Circuit, backtrack_limit: int = 1000):
        if circuit.num_state_vars:
            raise ValueError("PODEM requires a combinational circuit")
        self.circuit = circuit
        self.backtrack_limit = backtrack_limit
        self._compiled = False
        #: fault -> the last computed result for that fault
        self._memo: Dict[Fault, PodemResult] = {}

    # -- public API --------------------------------------------------------

    def run(self, fault: Fault,
            backtrack_limit: Optional[int] = None) -> PodemResult:
        """Generate a test cube for a single fault (see module docstring)."""
        return self.run_multi([fault], backtrack_limit)

    def run_multi(self, faults: Sequence[Fault],
                  backtrack_limit: Optional[int] = None) -> PodemResult:
        """:meth:`run` for ``faults``, which must hold exactly one fault
        (the list form is the entry point the flow benchmark's tracer
        times).

        ``backtrack_limit`` overrides the engine's limit for this call.
        A memoized verdict for the same fault answers the call without a
        search whenever it is what the search would return (see
        :meth:`_from_memo`).
        """
        if len(faults) != 1:
            raise ValueError("run_multi takes exactly one fault")
        fault = faults[0]
        limit = self.backtrack_limit if backtrack_limit is None \
            else backtrack_limit
        obs.incr("atpg.podem.calls")
        known = self._memo.get(fault)
        if known is not None:
            answer = self._from_memo(known, limit)
            if answer is not None:
                return self._record(answer, memo=True)
        if not self._compiled:
            self._compile()
        result = self._search(fault, limit)
        self._memo[fault] = result
        return self._record(_copy(result), memo=False)

    # -- verdict memo ------------------------------------------------------

    @staticmethod
    def _from_memo(known: PodemResult, limit: int) -> Optional[PodemResult]:
        """The result a search under ``limit`` would return, derived from
        an earlier result for the same fault, or ``None`` if unknowable.

        The search never reads its limit except to stop at the first
        backtrack that exceeds it — backtrack ``max(1, limit + 1)``.  A
        finished (detected/untestable) search that needed ``b``
        backtracks therefore finishes identically under any limit whose
        stopping point lies beyond ``b``, and aborts at the stopping
        point under every other limit; an aborted search that reached
        backtrack ``a`` answers any limit stopping at or before ``a``.
        """
        stop = max(1, limit + 1)
        if known.status != ABORTED and known.backtracks < stop:
            return _copy(known)
        if stop <= known.backtracks:
            return PodemResult(status=ABORTED, fault=known.fault,
                               backtracks=stop)
        return None

    @staticmethod
    def _record(result: PodemResult, memo: bool) -> PodemResult:
        """Telemetry funnel for every run_multi outcome.  A memo hit did
        no search, so it adds no backtracks."""
        obs.incr(f"atpg.podem.{result.status}")
        if memo:
            obs.incr("atpg.podem.memo_hits")
        elif result.backtracks:
            obs.incr("atpg.backtracks", result.backtracks)
        ledger.record("atpg.podem", fault=result.fault, engine="podem",
                      status=result.status, backtracks=result.backtracks,
                      memo=memo)
        return result

    # -- compilation -------------------------------------------------------

    def _compile(self) -> None:
        """Integer net tables: inputs first, then gate outputs in
        topological order, so a gate's id is also its evaluation rank."""
        circuit = self.circuit
        gates = circuit.topo_gates
        names = list(circuit.inputs) + [gate.output for gate in gates]
        net_id = {name: i for i, name in enumerate(names)}
        num_inputs = len(circuit.inputs)
        size = len(names)
        fanin: List[Tuple[int, ...]] = [()] * num_inputs
        fanin += [tuple(net_id[n] for n in gate.inputs) for gate in gates]
        level = [0] * size
        fanout: List[List[int]] = [[] for _ in range(size)]
        for out in range(num_inputs, size):
            ins = fanin[out]
            level[out] = 1 + max(level[n] for n in ins)
            for net in dict.fromkeys(ins):
                fanout[net].append(out)
        kinds = [""] * num_inputs + [gate.kind for gate in gates]
        self._names = names
        self._net_id = net_id
        self._num_inputs = num_inputs
        self._size = size
        self._fanin = fanin
        self._fanout = [tuple(sinks) for sinks in fanout]
        self._level = level
        self._ops = [None] * num_inputs + [_OPS[gate.kind] for gate in gates]
        self._kind = kinds
        self._control = [CONTROLLING_VALUE.get(kind) for kind in kinds]
        self._inverting = [INVERTING.get(kind, False) for kind in kinds]
        self._outputs = [net_id[po] for po in circuit.outputs]
        is_output = bytearray(size)
        for po in self._outputs:
            is_output[po] = 1
        self._is_output = is_output
        self._walk_limit = 10 * (len(circuit.gates) + 1)
        self._compiled = True

    # -- fault site compilation --------------------------------------------

    def _prepare(self, fault: Fault) -> None:
        """The forced site and the fanout cone of the fault.

        The faulty machine forces ``fault.stuck_at`` on one site: the
        value of net ``_stem``, input pin ``_pin`` of gate ``_pin_gate``,
        or the observed value of primary output ``_po``.  Unused site
        fields are -1; a branch fault on a pin the circuit lacks forces
        nothing.
        """
        net_id = self._net_id
        self._stem = self._pin_gate = self._pin = self._po = -1
        if fault.kind == STEM:
            self._stem = net_id[fault.net]
        elif fault.consumer.startswith("PO:"):
            po = net_id.get(fault.consumer[3:])
            if po is not None and self._is_output[po]:
                self._po = po
        else:
            gate = net_id.get(fault.consumer)
            if gate is not None and fault.pin < len(self._fanin[gate]):
                self._pin_gate = gate
                self._pin = fault.pin
        self._site = net_id[fault.net]
        self._stuck = fault.stuck_at
        # Forward closure of every net whose faulty value can differ.
        cone = bytearray(self._size)
        work = [net for net in (self._stem, self._pin_gate) if net >= 0]
        fanout = self._fanout
        while work:
            net = work.pop()
            if not cone[net]:
                cone[net] = 1
                work.extend(fanout[net])
        self._cone = cone
        self._cone_gates = [net for net in range(self._num_inputs, self._size)
                            if cone[net]]
        self._cone_outputs = [po for po in self._outputs
                              if cone[po] or po == self._po]

    # -- event-driven implication ------------------------------------------

    def _propagate(self, gates: Iterable[int]) -> None:
        """Re-evaluate ``gates`` and everything their changes reach, in
        topological order, logging old values on the trail."""
        good = self._good
        faulty = self._faulty
        queued = self._queued
        queue: List[int] = []
        for gate in gates:
            if not queued[gate]:
                queued[gate] = 1
                heappush(queue, gate)
        trail = self._trail
        cone = self._cone
        ops = self._ops
        fanin = self._fanin
        fanout = self._fanout
        stem = self._stem
        pin_gate = self._pin_gate
        pin = self._pin
        stuck = self._stuck
        evals = 0
        while queue:
            out = heappop(queue)
            queued[out] = 0
            op = ops[out]
            ins = fanin[out]
            g = _evaluate(op, good, ins)
            evals += 1
            if not cone[out]:
                f = g
            elif out == stem:
                f = stuck
            else:
                if out == pin_gate:
                    values = [faulty[net] for net in ins]
                    values[pin] = stuck
                    f = _evaluate(op, values, range(len(ins)))
                else:
                    f = _evaluate(op, faulty, ins)
                evals += 1
            if g != good[out] or f != faulty[out]:
                trail.append((out, good[out], faulty[out]))
                good[out] = g
                faulty[out] = f
                for sink in fanout[out]:
                    if not queued[sink]:
                        queued[sink] = 1
                        heappush(queue, sink)
        self._evals += evals

    def _assign(self, pi: int, value: int) -> None:
        """Set a primary input in both machines and imply."""
        good = self._good
        faulty = self._faulty
        self._trail.append((pi, good[pi], faulty[pi]))
        good[pi] = value
        if pi != self._stem:
            faulty[pi] = value
        self._propagate(self._fanout[pi])

    def _undo(self, mark: int) -> None:
        """Restore every net value changed since the trail was ``mark``
        entries long."""
        good = self._good
        faulty = self._faulty
        trail = self._trail
        while len(trail) > mark:
            net, g, f = trail.pop()
            good[net] = g
            faulty[net] = f

    # -- search ------------------------------------------------------------

    def _search(self, fault: Fault, limit: int) -> PodemResult:
        self._prepare(fault)
        size = self._size
        self._good = [X] * size
        self._faulty = [X] * size
        self._queued = bytearray(size)
        self._trail = []
        self._evals = 0
        # Initial implication: only the forced site differs from all-X.
        stem = self._stem
        if 0 <= stem < self._num_inputs:
            self._faulty[stem] = self._stuck
            self._propagate(self._fanout[stem])
        else:
            self._propagate([net for net in (stem, self._pin_gate)
                             if net >= 0])
        self._trail.clear()

        names = self._names
        assignment: Dict[str, int] = {}
        backtracks = 0
        # Decision stack entries: [pi, value, flipped_already, trail mark]
        stack: List[List] = []
        try:
            while True:
                detecting = self._detected_outputs()
                if detecting:
                    return PodemResult(
                        status=DETECTED,
                        fault=fault,
                        assignment=assignment,
                        detecting_outputs=detecting,
                        backtracks=backtracks,
                    )
                decision = None
                for objective in self._objectives():
                    pi, value = self._backtrace(*objective)
                    if pi is not None:
                        decision = (pi, value)
                        break
                if decision is not None:
                    pi, value = decision
                    stack.append([pi, value, False, len(self._trail)])
                    assignment[names[pi]] = value
                    self._assign(pi, value)
                    continue
                # No viable objective or backtrace dead-ends: backtrack.
                backtracks += 1
                if backtracks > limit:
                    return PodemResult(status=ABORTED, fault=fault,
                                       backtracks=backtracks)
                while stack and stack[-1][2]:
                    del assignment[names[stack.pop()[0]]]
                if not stack:
                    return PodemResult(status=UNTESTABLE,
                                       fault=fault,
                                       backtracks=backtracks)
                entry = stack[-1]
                self._undo(entry[3])
                entry[1] ^= 1
                entry[2] = True
                assignment[names[entry[0]]] = entry[1]
                self._assign(entry[0], entry[1])
        finally:
            if self._evals:
                obs.incr("atpg.podem.gate_evals", self._evals)

    def _detected_outputs(self) -> List[str]:
        """POs where good and faulty values are opposite binary values."""
        good = self._good
        faulty = self._faulty
        found = []
        for po in self._cone_outputs:
            g = good[po]
            f = self._stuck if po == self._po else faulty[po]
            if g != X and f != X and g != f:
                found.append(self._names[po])
        return found

    # -- objective selection -----------------------------------------------

    def _d_frontier(self) -> List[int]:
        """Cone gates with a fault effect on an input and an X output,
        in topological order."""
        good = self._good
        faulty = self._faulty
        fanin = self._fanin
        pin_gate = self._pin_gate
        stuck = self._stuck
        frontier = []
        for out in self._cone_gates:
            if good[out] != X and faulty[out] != X:
                continue
            forced = self._pin if out == pin_gate else -1
            for pin, net in enumerate(fanin[out]):
                g = good[net]
                f = stuck if pin == forced else faulty[net]
                if g != X and f != X and g != f:
                    frontier.append(out)
                    break
        return frontier

    def _x_path_exists(self, frontier: List[int]) -> bool:
        """Is there a path of X nets from some frontier gate to a PO?"""
        good = self._good
        faulty = self._faulty
        is_output = self._is_output
        fanout = self._fanout
        seen = set()
        work = list(frontier)
        while work:
            net = work.pop()
            if net in seen:
                continue
            seen.add(net)
            if is_output[net]:
                return True
            for sink in fanout[net]:
                if sink not in seen and (good[sink] == X or faulty[sink] == X):
                    work.append(sink)
        return False

    def _objectives(self) -> List[Tuple[int, int]]:
        """Candidate objectives in priority order; empty list = back up.

        An unjustified site asks for its activation; a site justified to
        its stuck value cannot be activated; an activated site asks to
        advance the D-frontier, if an X path still leads to an output.
        """
        good = self._good
        value = good[self._site]
        if value == X:
            return [(self._site, self._stuck ^ 1)]
        candidates: List[Tuple[int, int]] = []
        if value == self._stuck:
            return candidates
        frontier = self._d_frontier()
        if frontier and self._x_path_exists(frontier):
            fanin = self._fanin
            control = self._control
            for gate in sorted(frontier, key=self._level.__getitem__):
                for net in fanin[gate]:
                    if good[net] == X:
                        value = control[gate]
                        candidates.append(
                            (net, 0 if value is None else value ^ 1))
                        break
        return candidates

    # -- backtrace ---------------------------------------------------------

    def _backtrace(self, net: int, value: int) -> Tuple[Optional[int], int]:
        """Walk an objective back to an unassigned primary input.

        Returns ``(None, 0)`` when the walk dead-ends (every path reaches
        assigned inputs), which forces a backtrack.
        """
        good = self._good
        level = self._level
        fanin = self._fanin
        num_inputs = self._num_inputs
        for _ in range(self._walk_limit):
            if net < num_inputs:
                if good[net] != X:
                    return None, 0
                return net, value
            kind = self._kind[net]
            ins = fanin[net]
            needed = value ^ 1 if self._inverting[net] else value
            control = self._control[net]
            x_inputs = [n for n in ins if good[n] == X]
            if not x_inputs:
                return None, 0
            if control is None:  # NOT / BUF / XOR / XNOR
                if kind in ("NOT", "BUF"):
                    net, value = ins[0], needed
                else:
                    first = x_inputs[0]
                    parity = 0
                    for n in ins:
                        if n != first and good[n] != X:
                            parity ^= good[n]
                    net, value = first, needed ^ parity
                continue
            if needed == control:
                # One controlling input suffices: pick the easiest (lowest
                # level) X input.
                net = min(x_inputs, key=level.__getitem__)
                value = control
            else:
                # All inputs must be non-controlling: pick the hardest.
                net = max(x_inputs, key=level.__getitem__)
                value = control ^ 1
        return None, 0
