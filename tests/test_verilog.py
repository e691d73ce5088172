"""Structural Verilog reader/writer."""

import pytest

from repro.circuit import (
    Circuit,
    CircuitError,
    Gate,
    parse_verilog,
    s27,
    write_verilog,
)
from repro.circuit.verilog import load_verilog, save_verilog

SAMPLE = """
// a comment
module toy (a, b, q);
  input a, b;          /* block
                          comment */
  output q;
  wire n1, n2;

  nand U1 (n1, a, b);
  not     (n2, n1);    // anonymous instance
  dff FF0 (q, n2);
endmodule
"""


class TestParse:
    def test_sample(self):
        c = parse_verilog(SAMPLE)
        assert c.name == "toy"
        assert c.inputs == ("a", "b")
        assert c.outputs == ("q",)
        assert c.gate_by_output["n1"].kind == "NAND"
        assert c.flop_by_q["q"].d == "n2"

    def test_name_override(self):
        assert parse_verilog(SAMPLE, name="renamed").name == "renamed"

    def test_multiline_instance(self):
        text = ("module m (a, y); input a; output y;\n"
                "  buf U0 (y,\n          a);\nendmodule\n")
        c = parse_verilog(text)
        assert c.gate_by_output["y"].kind == "BUF"

    def test_no_module(self):
        with pytest.raises(CircuitError, match="module header"):
            parse_verilog("wire x;")

    def test_missing_endmodule(self):
        with pytest.raises(CircuitError, match="endmodule"):
            parse_verilog("module m (a); input a;")

    def test_unsupported_primitive(self):
        with pytest.raises(CircuitError, match="unsupported primitive"):
            parse_verilog("module m (a, y); input a; output y;\n"
                          "  latch L0 (y, a);\nendmodule")

    def test_assign_rejected(self):
        with pytest.raises(CircuitError, match="unsupported"):
            parse_verilog("module m (a, y); input a; output y;\n"
                          "  assign y = a;\nendmodule")

    def test_vectors_rejected(self):
        with pytest.raises(CircuitError, match="vector"):
            parse_verilog("module m (a, y); input [3:0] a; output y;\n"
                          "endmodule")

    def test_dff_port_count(self):
        with pytest.raises(CircuitError, match="dff takes"):
            parse_verilog("module m (a, q); input a; output q;\n"
                          "  dff F (q, a, a);\nendmodule")

    def test_structural_validation_applies(self):
        with pytest.raises(CircuitError, match="undriven"):
            parse_verilog("module m (a, y); input a; output y;\n"
                          "  buf U (y, ghost);\nendmodule")


class TestRoundTrip:
    def test_s27(self, s27_circuit):
        assert parse_verilog(write_verilog(s27_circuit)) == s27_circuit

    def test_scan_circuit(self, s27_scan):
        c = s27_scan.circuit
        assert parse_verilog(write_verilog(c)) == c

    def test_file_io(self, tmp_path, s27_circuit):
        path = tmp_path / "s27.v"
        save_verilog(s27_circuit, path)
        assert load_verilog(path) == s27_circuit

    def test_behavioural_equivalence(self, s27_circuit):
        """Round-tripped netlists simulate identically."""
        from repro.sim import LogicSimulator
        from tests.util import random_vectors

        again = parse_verilog(write_verilog(s27_circuit))
        a, b = LogicSimulator(s27_circuit), LogicSimulator(again)
        for vector in random_vectors(s27_circuit, 40, seed=3):
            assert a.step(vector) == b.step(vector)
