"""PODEM combinational ATPG: cubes verified by simulation, untestability
proofs, abort behaviour, the verdict memo, and decisions pinned to the
values of the original full re-simulation engine."""

import hashlib
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.atpg import ABORTED, DETECTED, UNTESTABLE, Podem, comb_view
from repro.atpg.comb_view import view_fault
from repro.atpg.podem import _OPS, _evaluate
from repro.circuit import Circuit, Gate
from repro.circuit.gates import GATE_ARITY, ONE, X, ZERO, eval_gate
from repro.circuit.synth import random_circuit
from repro.experiments.suite import build_circuit
from repro.faults import collapse_faults, enumerate_faults, stem_fault
from repro.obs.ledger import explain_fault


def verify_cube(circuit, fault, assignment):
    """Independent check: simulate good and faulty machines under the cube
    (unassigned inputs X) and require an output with opposite binary
    values.  A valid PODEM cube must detect for *any* fill, so X-filled
    simulation succeeding is the strictest confirmation."""
    good = {net: assignment.get(net, X) for net in circuit.inputs}
    faulty = dict(good)
    if fault.kind == "stem" and fault.net in good:
        faulty[fault.net] = fault.stuck_at
    for gate in circuit.topo_gates:
        good[gate.output] = eval_gate(gate.kind, [good[n] for n in gate.inputs])
        fin = []
        for pin, net in enumerate(gate.inputs):
            value = faulty[net]
            if fault.kind == "branch" and fault.consumer == gate.output \
                    and fault.pin == pin:
                value = fault.stuck_at
            fin.append(value)
        value = eval_gate(gate.kind, fin)
        if fault.kind == "stem" and fault.net == gate.output:
            value = fault.stuck_at
        faulty[gate.output] = value
    for po in circuit.outputs:
        g, f = good[po], faulty[po]
        if fault.kind == "branch" and fault.consumer == f"PO:{po}":
            f = fault.stuck_at
        if g != X and f != X and g != f:
            return True
    return False


class TestOnCombinationalCircuits:
    def test_all_toy_comb_faults(self, toy_comb_circuit):
        podem = Podem(toy_comb_circuit)
        for fault in enumerate_faults(toy_comb_circuit):
            result = podem.run(fault)
            assert result.status in (DETECTED, UNTESTABLE)
            if result.found:
                assert verify_cube(toy_comb_circuit, fault, result.assignment)

    def test_requires_combinational(self, s27_circuit):
        with pytest.raises(ValueError):
            Podem(s27_circuit)

    def test_pi_fault(self):
        c = Circuit("t", ["a", "b"], ["y"], [Gate("y", "AND", ("a", "b"))])
        result = Podem(c).run(stem_fault("a", 0))
        assert result.found
        assert result.assignment.get("a") == ONE
        assert result.assignment.get("b") == ONE

    def test_po_branch_fault(self):
        c = Circuit("t", ["a"], ["y", "z"], [
            Gate("m", "BUF", ("a",)),
            Gate("y", "BUF", ("m",)),
            Gate("z", "NOT", ("m",)),
        ])
        # Fault on the PO pin of y (driver m fans out to y and z).
        result = Podem(c).run(stem_fault("y", 0))
        assert result.found
        assert verify_cube(c, stem_fault("y", 0), result.assignment)

    def test_untestable_redundant_logic(self):
        """y = OR(a, NOT(a)) is constant 1; y/SA1 is undetectable."""
        c = Circuit("t", ["a", "b"], ["out"], [
            Gate("na", "NOT", ("a",)),
            Gate("y", "OR", ("a", "na")),
            Gate("out", "AND", ("y", "b")),
        ])
        assert Podem(c).run(stem_fault("y", 1)).status == UNTESTABLE

    def test_unobservable_fault_untestable(self):
        """A net masked by a constant-0 AND partner can't propagate."""
        c = Circuit("t", ["a", "b"], ["out"], [
            Gate("nb", "NOT", ("b",)),
            Gate("zero", "AND", ("b", "nb")),   # constant 0
            Gate("out", "AND", ("a", "zero")),
        ])
        assert Podem(c).run(stem_fault("a", 0)).status == UNTESTABLE

    def test_xor_propagation(self):
        c = Circuit("t", ["a", "b"], ["y"], [Gate("y", "XOR", ("a", "b"))])
        for fault in (stem_fault("a", 0), stem_fault("a", 1)):
            result = Podem(c).run(fault)
            assert result.found
            assert verify_cube(c, fault, result.assignment)

    def test_mux_gate(self):
        """PODEM justifies through the four-gate scan mux."""
        c = Circuit("t", ["s", "d0", "d1"], ["y"], [
            Gate("sn", "NOT", ("s",)),
            Gate("t0", "AND", ("d0", "sn")),
            Gate("t1", "AND", ("d1", "s")),
            Gate("y", "OR", ("t0", "t1")),
        ])
        result = Podem(c).run(stem_fault("d1", 0))
        assert result.found
        assert verify_cube(c, stem_fault("d1", 0), result.assignment)

    def test_abort_on_tiny_backtrack_limit(self):
        """An untestable internal fault with backtrack limit 0 gives up
        (ABORTED) instead of completing the exhaustion proof."""
        c = Circuit("t", ["a", "b", "c"], ["y"], [
            Gate("p", "XOR", ("a", "b")),
            Gate("q", "XOR", ("b", "c")),
            Gate("r", "AND", ("p", "q")),
            Gate("nr", "NOT", ("r",)),
            Gate("y", "AND", ("r", "nr")),   # r masked by nr: r/SA0 undetectable
        ])
        fault = stem_fault("r", 0)
        assert Podem(c, backtrack_limit=5000).run(fault).status == UNTESTABLE
        assert Podem(c, backtrack_limit=0).run(fault).status == ABORTED


class TestOnCombViewOfScanCircuits:
    def test_s27_view_full_coverage(self, s27_circuit):
        """Every collapsed fault of s27 is PODEM-testable in the view
        (full scan makes s27's core fully testable)."""
        view = comb_view(s27_circuit)
        podem = Podem(view.circuit, backtrack_limit=2000)
        for fault in collapse_faults(s27_circuit):
            if fault.consumer is not None and \
                    fault.consumer in s27_circuit.flop_by_q:
                continue
            result = podem.run(fault)
            assert result.found, f"{fault} should be testable with full scan"
            assert verify_cube(view.circuit, fault, result.assignment)

    def test_s27_scan_view_full_coverage(self, s27_scan):
        circuit = s27_scan.circuit
        view = comb_view(circuit)
        podem = Podem(view.circuit, backtrack_limit=2000)
        tested = untestable = 0
        for fault in collapse_faults(circuit):
            if fault.consumer is not None and fault.consumer in circuit.flop_by_q:
                continue
            result = podem.run(fault)
            if result.found:
                tested += 1
                assert verify_cube(view.circuit, fault, result.assignment)
            elif result.status == UNTESTABLE:
                untestable += 1
        assert tested > 40
        assert untestable == 0  # s27_scan has no redundant faults

    def test_backtracks_reported(self, s27_circuit):
        view = comb_view(s27_circuit)
        podem = Podem(view.circuit)
        result = podem.run(collapse_faults(s27_circuit)[0])
        assert result.backtracks >= 0


class TestCombView:
    def test_structure(self, s27_circuit):
        view = comb_view(s27_circuit)
        assert view.circuit.num_state_vars == 0
        assert set(view.pseudo_inputs) == {"G5", "G6", "G7"}
        assert "G10" in view.circuit.outputs  # D of G5 is a pseudo PO
        assert view.pseudo_output_of["G5"] == "G10"

    def test_rejects_combinational(self, toy_comb_circuit):
        with pytest.raises(ValueError):
            comb_view(toy_comb_circuit)

    def test_split_assignment(self, s27_circuit):
        view = comb_view(s27_circuit)
        state, vector = view.split_assignment({"G5": ONE, "G0": ZERO}, fill=X)
        assert state == (ONE, X, X)
        assert vector == (ZERO, X, X, X)

    def test_capturing_flops(self, s27_circuit):
        view = comb_view(s27_circuit)
        assert view.capturing_flops(["G10"]) == ["G5"]
        assert view.capturing_flops(["G17"]) == []


# -- independent oracle ---------------------------------------------------------


def _bits(kind, values, full):
    """Two-valued gate over bit-parallel ints (one bit per assignment)."""
    if kind in ("AND", "NAND"):
        out = full
        for v in values:
            out &= v
    elif kind in ("OR", "NOR"):
        out = 0
        for v in values:
            out |= v
    elif kind in ("XOR", "XNOR"):
        out = 0
        for v in values:
            out ^= v
    else:  # NOT / BUF
        out = values[0]
    return out ^ full if kind in ("NAND", "NOR", "XNOR", "NOT") else out


def exhaustive(circuit, fault):
    """``(patterns, detecting)`` over all 2^n full input assignments at
    once: bit k of ``patterns[pi]`` is input ``pi`` under assignment k,
    and bit k of ``detecting`` is set when assignment k detects
    ``fault``.  Shares no code with the PODEM engine."""
    count = 1 << len(circuit.inputs)
    full = (1 << count) - 1
    patterns = {
        net: sum(1 << k for k in range(count) if k >> i & 1)
        for i, net in enumerate(circuit.inputs)
    }
    stuck = full if fault.stuck_at else 0
    good = dict(patterns)
    faulty = dict(patterns)
    if fault.kind == "stem" and fault.net in faulty:
        faulty[fault.net] = stuck
    for gate in circuit.topo_gates:
        good[gate.output] = _bits(gate.kind, [good[n] for n in gate.inputs],
                                  full)
        ins = [faulty[n] for n in gate.inputs]
        if fault.kind == "branch" and fault.consumer == gate.output:
            ins[fault.pin] = stuck
        if fault.kind == "stem" and fault.net == gate.output:
            faulty[gate.output] = stuck
        else:
            faulty[gate.output] = _bits(gate.kind, ins, full)
    detecting = 0
    for po in circuit.outputs:
        observed = stuck if fault.consumer == f"PO:{po}" else faulty[po]
        detecting |= good[po] ^ observed
    return patterns, detecting


@settings(max_examples=60, deadline=None)
@given(inputs=st.integers(1, 5), flops=st.integers(1, 5),
       gates=st.integers(4, 30), seed=st.integers(0, 10**6))
def test_verdicts_match_exhaustive_search(inputs, flops, gates, seed):
    """On comb views with <= 10 inputs, a 4096-backtrack budget always
    completes: every cube detects under every completion, and
    "untestable" holds exactly when no input assignment detects."""
    circuit = comb_view(random_circuit(
        "oracle", inputs, flops, max(gates, flops), seed=seed)).circuit
    podem = Podem(circuit, backtrack_limit=1 << 12)
    for fault in enumerate_faults(circuit):
        result = podem.run(fault)
        patterns, detecting = exhaustive(circuit, fault)
        assert result.status != ABORTED, fault
        assert (result.status == UNTESTABLE) == (detecting == 0), fault
        if result.found:
            assert verify_cube(circuit, fault, result.assignment), fault
            completions = (1 << (1 << len(circuit.inputs))) - 1
            for net, value in result.assignment.items():
                completions &= patterns[net] if value else ~patterns[net]
            assert completions and not completions & ~detecting, fault


# -- run_multi --------------------------------------------------------------------


def test_run_multi_takes_exactly_one_fault(toy_comb_circuit):
    podem = Podem(toy_comb_circuit)
    for count in (0, 2):
        faults = [stem_fault(n, 0) for n in toy_comb_circuit.inputs[:count]]
        with pytest.raises(ValueError):
            podem.run_multi(faults)


# -- decisions pinned to the original engine ----------------------------------------

#: sha256 over every collapsed fault's (status, backtracks, sorted cube,
#: detecting outputs) on the suite circuit's comb view, as produced by
#: the engine that re-simulated the whole circuit after every decision.
PINNED = {
    ("s208", 1000):
        "2a1eb1eb9cb41e707340f3e44040d8d6a0c45872714a729dbab15903314b870f",
    ("s208", 20):
        "a5af73d4bb71887a455edd8c9b9f25b8265dce07ff0973c823beeadeb9f4381a",
    ("s298", 1000):
        "d8d68a6bdbe199e92b13846c9304eda1e1f6d40dba9f3b7052fa909932e3278a",
    ("s298", 20):
        "ba1c665eb812c4c81cfc752eac75ffa5712c7e02b53466c14e21bd4b3b234030",
}


@pytest.mark.parametrize("name,limit", sorted(PINNED))
def test_decisions_pinned(name, limit):
    circuit = build_circuit(name)
    podem = Podem(comb_view(circuit).circuit, backtrack_limit=limit)
    digest = hashlib.sha256()
    for fault in collapse_faults(circuit):
        r = podem.run(view_fault(circuit, fault))
        digest.update(repr((r.status, r.backtracks,
                            sorted(r.assignment.items()),
                            list(r.detecting_outputs))).encode())
    assert digest.hexdigest() == PINNED[(name, limit)]


# -- verdict memo ---------------------------------------------------------------------


def _masked_circuit():
    """r/SA0 is untestable (r is masked by its own complement); proving
    it takes 6 backtracks."""
    return Circuit("t", ["a", "b", "c"], ["y"], [
        Gate("p", "XOR", ("a", "b")),
        Gate("q", "XOR", ("b", "c")),
        Gate("r", "AND", ("p", "q")),
        Gate("nr", "NOT", ("r",)),
        Gate("y", "AND", ("r", "nr")),
    ])


def _counter(telemetry, name):
    return telemetry.metrics.counter(name).value


class TestVerdictMemo:
    def test_finished_verdict_answers_every_limit(self):
        podem = Podem(_masked_circuit(), backtrack_limit=5000)
        fault = stem_fault("r", 0)
        with obs.session() as telemetry:
            proof = podem.run(fault)
            assert (proof.status, proof.backtracks) == (UNTESTABLE, 6)
            assert podem.run(fault, backtrack_limit=6) == proof
            lower = podem.run(fault, backtrack_limit=3)
            assert (lower.status, lower.backtracks) == (ABORTED, 4)
            assert podem.run(fault, backtrack_limit=5).backtracks == 6
        assert _counter(telemetry, "atpg.podem.calls") == 4
        assert _counter(telemetry, "atpg.podem.memo_hits") == 3
        assert _counter(telemetry, "atpg.backtracks") == 6

    def test_aborted_verdict_answers_only_lower_limits(self):
        podem = Podem(_masked_circuit(), backtrack_limit=3)
        fault = stem_fault("r", 0)
        with obs.session() as telemetry:
            assert podem.run(fault).backtracks == 4
            again = podem.run(fault, backtrack_limit=1)
            assert (again.status, again.backtracks) == (ABORTED, 2)
            assert _counter(telemetry, "atpg.podem.memo_hits") == 1
            proof = podem.run(fault, backtrack_limit=100)
            assert (proof.status, proof.backtracks) == (UNTESTABLE, 6)
        assert _counter(telemetry, "atpg.podem.memo_hits") == 1
        assert _counter(telemetry, "atpg.backtracks") == 4 + 6

    def test_memo_equals_fresh_search_under_any_limit_order(self):
        """One engine asked for every s298 fault under a mix of limits
        answers exactly what a fresh engine searches to."""
        circuit = build_circuit("s298")
        view = comb_view(circuit).circuit
        faults = [view_fault(circuit, f) for f in collapse_faults(circuit)]
        podem = Podem(view, backtrack_limit=20)
        for limit in (20, 1000, 0, 5, 400, 21, 1000):
            fresh = Podem(view, backtrack_limit=limit)
            for fault in faults:
                assert podem.run(fault, backtrack_limit=limit) == \
                    fresh.run(fault), (limit, fault)

    def test_memo_hit_is_recorded_without_search_work(self):
        podem = Podem(_masked_circuit())
        fault = stem_fault("r", 0)
        with obs.session(ledger=True) as telemetry:
            podem.run(fault)
            evals = _counter(telemetry, "atpg.podem.gate_evals")
            podem.run(fault)
        assert evals > 0
        assert _counter(telemetry, "atpg.podem.gate_evals") == evals
        events = telemetry.ledger.events_for(fault)
        assert [e.data["memo"] for e in events] == [False, True]
        assert [e.data["status"] for e in events] == [UNTESTABLE] * 2
        explained = explain_fault(telemetry.ledger, fault)
        assert "verdict reused from the engine memo" in explained

    def test_results_are_private_copies(self):
        c = Circuit("t", ["a", "b"], ["y"], [Gate("y", "AND", ("a", "b"))])
        podem = Podem(c)
        first = podem.run(stem_fault("a", 0))
        first.assignment.clear()
        first.detecting_outputs.clear()
        again = podem.run(stem_fault("a", 0))
        assert again.assignment == {"a": ONE, "b": ONE}
        assert again.detecting_outputs == ["y"]


@pytest.mark.parametrize("kind", sorted(GATE_ARITY))
def test_fold_tables_match_eval_gate(kind):
    """The engine's table-driven evaluator agrees with the reference
    three-valued semantics on every input combination up to arity 4."""
    low, high = GATE_ARITY[kind]
    for arity in range(low, min(high or 4, 4) + 1):
        for values in itertools.product((ZERO, ONE, X), repeat=arity):
            assert _evaluate(_OPS[kind], values, range(arity)) == \
                eval_gate(kind, values), (kind, values)
