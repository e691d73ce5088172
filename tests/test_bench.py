"""ISCAS-89 .bench reader/writer."""

import pytest

from repro.circuit import (
    CircuitError,
    load_bench,
    parse_bench,
    s27,
    save_bench,
    write_bench,
)

SIMPLE = """
# a comment
INPUT(a)
INPUT(b)
OUTPUT(y)
q = DFF(d)
d = AND(a, q)   # trailing comment
y = NAND(b, q)
"""


class TestParse:
    def test_simple(self):
        c = parse_bench(SIMPLE, name="simple")
        assert c.inputs == ("a", "b")
        assert c.outputs == ("y",)
        assert c.num_state_vars == 1
        assert c.gate_by_output["d"].kind == "AND"

    def test_comments_and_blanks_ignored(self):
        c = parse_bench("\n \n# only\nINPUT(a)\nOUTPUT(a)\n")
        assert c.inputs == ("a",)

    def test_case_insensitive_kinds(self):
        c = parse_bench("INPUT(a)\nOUTPUT(y)\ny = nand(a, a)\n")
        assert c.gate_by_output["y"].kind == "NAND"

    def test_buff_alias(self):
        c = parse_bench("INPUT(a)\nOUTPUT(y)\ny = BUFF(a)\n")
        assert c.gate_by_output["y"].kind == "BUF"

    def test_whitespace_tolerance(self):
        c = parse_bench("INPUT( a )\nOUTPUT( y )\ny  =  OR( a , a )\n")
        assert c.gate_by_output["y"].inputs == ("a", "a")

    def test_garbage_line(self):
        with pytest.raises(CircuitError, match="cannot parse"):
            parse_bench("INPUT(a)\nwat\n")

    def test_dff_arity(self):
        with pytest.raises(CircuitError, match="DFF takes one input"):
            parse_bench("INPUT(a)\nOUTPUT(q)\nq = DFF(a, a)\n")

    def test_bad_gate_arity(self):
        with pytest.raises(CircuitError):
            parse_bench("INPUT(a)\nOUTPUT(y)\ny = NOT(a, a)\n")

    def test_mux_gate_refused(self):
        """A scan mux is four elementary gates; there is no MUX kind."""
        with pytest.raises(CircuitError, match="unknown gate kind: 'MUX'"):
            parse_bench("INPUT(s)\nINPUT(a)\nINPUT(b)\nOUTPUT(y)\n"
                        "y = MUX(s, a, b)\n")

    def test_structural_validation_applies(self):
        with pytest.raises(CircuitError, match="undriven"):
            parse_bench("INPUT(a)\nOUTPUT(y)\ny = NOT(ghost)\n")


class TestRoundTrip:
    def test_s27_roundtrip(self, s27_circuit):
        text = write_bench(s27_circuit)
        again = parse_bench(text, name="s27")
        assert again == s27_circuit

    def test_roundtrip_preserves_order(self):
        c = parse_bench(SIMPLE, name="simple")
        again = parse_bench(write_bench(c), name="simple")
        assert again.inputs == c.inputs
        assert again.outputs == c.outputs

    def test_save_load(self, tmp_path, s27_circuit):
        path = tmp_path / "s27.bench"
        save_bench(s27_circuit, path)
        loaded = load_bench(path)
        assert loaded == s27_circuit
        assert loaded.name == "s27"


class TestPackagedS27:
    def test_shape(self):
        c = s27()
        assert c.num_inputs == 4
        assert c.num_outputs == 1
        assert c.num_gates == 10
        assert c.num_state_vars == 3

    def test_known_structure(self):
        c = s27()
        assert c.gate_by_output["G17"].inputs == ("G11",)
        assert c.flop_by_q["G7"].d == "G13"

    def test_unknown_packaged_circuit(self):
        from repro.circuit.library import load

        with pytest.raises(KeyError):
            load("s99999")
