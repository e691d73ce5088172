"""Structural analysis."""

from repro.analysis import (
    analyze,
    combinational_depth,
    logic_levels,
    sequential_depth,
    state_dependency_graph,
)


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
