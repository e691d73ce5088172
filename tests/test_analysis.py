"""SCOAP testability and structural analysis."""

import pytest

from repro.analysis import (
    INFINITY,
    analyze,
    combinational_depth,
    compute_testability,
    hardest_nets,
    logic_levels,
    sequential_depth,
    state_dependency_graph,
)
from repro.circuit import Circuit, FlipFlop, Gate, s27, toy_comb, toy_pipeline


class TestScoapControllability:
    def test_primary_inputs_cost_one(self, toy_comb_circuit):
        m = compute_testability(toy_comb_circuit)
        for pi in toy_comb_circuit.inputs:
            assert m[pi].cc0 == 1
            assert m[pi].cc1 == 1

    def test_and_gate(self):
        c = Circuit("t", ["a", "b"], ["y"], [Gate("y", "AND", ("a", "b"))])
        m = compute_testability(c)
        assert m["y"].cc0 == 2   # one controlling 0 + 1
        assert m["y"].cc1 == 3   # both 1s + 1

    def test_or_gate(self):
        c = Circuit("t", ["a", "b"], ["y"], [Gate("y", "OR", ("a", "b"))])
        m = compute_testability(c)
        assert m["y"].cc1 == 2
        assert m["y"].cc0 == 3

    def test_not_swaps(self):
        c = Circuit("t", ["a", "b"], ["y", "z"], [
            Gate("m", "AND", ("a", "b")),
            Gate("y", "NOT", ("m",)),
            Gate("z", "BUF", ("m",)),
        ])
        m = compute_testability(c)
        assert m["y"].cc0 == m["m"].cc1 + 1
        assert m["y"].cc1 == m["m"].cc0 + 1
        assert m["z"].cc0 == m["m"].cc0 + 1

    def test_xor_parity(self):
        c = Circuit("t", ["a", "b"], ["y"], [Gate("y", "XOR", ("a", "b"))])
        m = compute_testability(c)
        # 0: both 0 (2) or both 1 (2) -> 2 + 1; 1: one of each -> 2 + 1.
        assert m["y"].cc0 == 3
        assert m["y"].cc1 == 3

    def test_mux(self):
        c = Circuit("t", ["s", "d0", "d1"], ["y"],
                    [Gate("y", "MUX", ("s", "d0", "d1"))])
        m = compute_testability(c)
        assert m["y"].cc1 == 3  # sel + selected data + 1

    def test_flop_outputs_charged_state_cost(self, toy_pipeline_circuit):
        m = compute_testability(toy_pipeline_circuit, state_cost=9)
        assert m["p0"].cc0 == 9
        assert m["p0"].cc1 == 9

    def test_monotone_with_depth(self):
        """Deeper chains cost more to control."""
        gates = [Gate("n0", "AND", ("a", "b"))]
        for i in range(1, 6):
            gates.append(Gate(f"n{i}", "AND", (f"n{i-1}", "b")))
        c = Circuit("t", ["a", "b"], ["n5"], gates)
        m = compute_testability(c)
        costs = [m[f"n{i}"].cc1 for i in range(6)]
        assert costs == sorted(costs)
        assert costs[0] < costs[-1]


class TestScoapObservability:
    def test_po_is_free(self, toy_comb_circuit):
        m = compute_testability(toy_comb_circuit)
        assert m["y"].co == 0
        assert m["z"].co == 0

    def test_and_side_input(self):
        c = Circuit("t", ["a", "b"], ["y"], [Gate("y", "AND", ("a", "b"))])
        m = compute_testability(c)
        # Observing `a` needs b=1 (cost 1) plus the step.
        assert m["a"].co == 2

    def test_unobservable_net_saturates(self):
        c = Circuit("t", ["a", "b"], ["y"], [
            Gate("dead", "NOT", ("b",)),
            Gate("deader", "NOT", ("dead",)),
            Gate("y", "BUF", ("a",)),
        ])
        m = compute_testability(c)
        assert m["deader"].co >= INFINITY

    def test_flop_d_capture_cost(self, toy_pipeline_circuit):
        m = compute_testability(toy_pipeline_circuit, capture_cost=7)
        # stage0 only feeds flop p0.
        assert m["stage0"].co == 7

    def test_hardest_nets_ranked(self, s27_circuit):
        ranked = hardest_nets(s27_circuit, count=5)
        assert len(ranked) == 5
        values = [t.hardest for _n, t in ranked]
        assert values == sorted(values, reverse=True)


class TestStructure:
    def test_logic_levels(self, toy_comb_circuit):
        levels = logic_levels(toy_comb_circuit)
        assert levels["a"] == 0
        assert levels["t1"] == 1
        assert levels["y"] == 2

    def test_combinational_depth(self, toy_comb_circuit, s27_circuit):
        assert combinational_depth(toy_comb_circuit) == 2
        assert combinational_depth(s27_circuit) >= 3

    def test_state_dependency_graph(self, toy_pipeline_circuit):
        graph = state_dependency_graph(toy_pipeline_circuit)
        assert graph["p1"] == {"p0"}
        assert graph["p2"] == {"p1"}
        assert graph["p0"] == set()

    def test_sequential_depth_pipeline(self, toy_pipeline_circuit):
        assert sequential_depth(toy_pipeline_circuit) == 2

    def test_sequential_depth_s27(self, s27_circuit):
        assert sequential_depth(s27_circuit) >= 1

    def test_sequential_depth_limit(self, toy_pipeline_circuit):
        assert sequential_depth(toy_pipeline_circuit, limit=1) == 1

    def test_analyze_report(self, s27_circuit):
        report = analyze(s27_circuit)
        assert report.gates == 10
        assert report.flops == 3
        assert "s27" in str(report)
