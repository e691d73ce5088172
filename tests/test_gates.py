"""Gate primitive semantics: scalar truth tables, agreement of the packed
formulas the fault simulators run with the scalar ones, arity
validation."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.circuit.gates import (
    GATE_ARITY,
    GATE_KINDS,
    ONE,
    X,
    ZERO,
    check_arity,
    eval_gate,
    invert,
    value_from_char,
    value_to_char,
)
from repro.sim.fault_sim import _KIND_CODE, _eval_gates

VALUES = (ZERO, ONE, X)


def _pack_scalar(value, bit):
    """Encode one scalar value into packed planes at position ``bit``."""
    if value == ONE:
        return 1 << bit, 0
    if value == ZERO:
        return 0, 1 << bit
    return 0, 0


def _unpack_scalar(planes, bit):
    ones, zeros = planes
    if ones & (1 << bit):
        return ONE
    if zeros & (1 << bit):
        return ZERO
    return X


def eval_gate_compiled(kind, packed_inputs, machines):
    """Evaluate one compiled gate with the packed simulators' own
    evaluator: inputs on nets ``0..n-1``, the output on net ``n``."""
    arity = len(packed_inputs)
    ones = [o for o, _z in packed_inputs] + [0]
    zeros = [z for _o, z in packed_inputs] + [0]
    gate = (_KIND_CODE[kind], arity, tuple(range(arity)), None, None)
    _eval_gates([gate], ones, zeros, (1 << machines) - 1)
    return ones[arity], zeros[arity]


def _scan_mux(sel, d0, d1):
    functional = eval_gate("AND", [d0, eval_gate("NOT", [sel])])
    shifted = eval_gate("AND", [d1, sel])
    return eval_gate("OR", [functional, shifted])


# -- scalar truth tables ------------------------------------------------------


class TestScalarTruthTables:
    def test_and_binary(self):
        assert eval_gate("AND", [ONE, ONE]) == ONE
        assert eval_gate("AND", [ONE, ZERO]) == ZERO
        assert eval_gate("AND", [ZERO, ZERO]) == ZERO

    def test_and_controlling_zero_beats_x(self):
        assert eval_gate("AND", [ZERO, X]) == ZERO
        assert eval_gate("AND", [X, ZERO, ONE]) == ZERO

    def test_and_x_dominates_without_control(self):
        assert eval_gate("AND", [ONE, X]) == X

    def test_or_binary(self):
        assert eval_gate("OR", [ZERO, ZERO]) == ZERO
        assert eval_gate("OR", [ZERO, ONE]) == ONE

    def test_or_controlling_one_beats_x(self):
        assert eval_gate("OR", [ONE, X]) == ONE

    def test_or_x(self):
        assert eval_gate("OR", [ZERO, X]) == X

    def test_nand_nor_are_inversions(self):
        for a, b in itertools.product(VALUES, repeat=2):
            assert eval_gate("NAND", [a, b]) == invert(eval_gate("AND", [a, b]))
            assert eval_gate("NOR", [a, b]) == invert(eval_gate("OR", [a, b]))

    def test_not_buf(self):
        assert eval_gate("NOT", [ZERO]) == ONE
        assert eval_gate("NOT", [ONE]) == ZERO
        assert eval_gate("NOT", [X]) == X
        for v in VALUES:
            assert eval_gate("BUF", [v]) == v

    def test_xor_binary(self):
        assert eval_gate("XOR", [ZERO, ONE]) == ONE
        assert eval_gate("XOR", [ONE, ONE]) == ZERO
        assert eval_gate("XOR", [ONE, ONE, ONE]) == ONE

    def test_xor_any_x_is_x(self):
        assert eval_gate("XOR", [X, ONE]) == X
        assert eval_gate("XOR", [ZERO, X]) == X

    def test_xnor_inverts_xor(self):
        for a, b in itertools.product(VALUES, repeat=2):
            assert eval_gate("XNOR", [a, b]) == invert(eval_gate("XOR", [a, b]))

    # The scan mux ``insert_scan`` builds from elementary gates:
    # OR(AND(d0, NOT(sel)), AND(d1, sel)).

    def test_mux_select_known(self):
        """A known select passes the chosen data through, even when the
        other data input is X (a shift cycle with X primary inputs loads
        exactly the scan-in values)."""
        for d0, d1 in itertools.product(VALUES, repeat=2):
            assert _scan_mux(ZERO, d0, d1) == d0
            assert _scan_mux(ONE, d0, d1) == d1

    def test_mux_select_unknown_agreeing_data(self):
        """An X select keeps agreeing zeros but not agreeing ones: the
        gate-level mux is as pessimistic as its gates."""
        assert _scan_mux(X, ZERO, ZERO) == ZERO
        assert _scan_mux(X, ONE, ONE) == X

    def test_mux_select_unknown_disagreeing_data(self):
        assert _scan_mux(X, ZERO, ONE) == X
        assert _scan_mux(X, X, ONE) == X

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            eval_gate("FOO", [ONE])


# -- packed vs scalar agreement --------------------------------------------------


class TestPackedAgreement:
    @pytest.mark.parametrize("kind", sorted(GATE_KINDS))
    def test_exhaustive_agreement_per_kind(self, kind):
        """Every packed evaluation matches scalar semantics bit-for-bit,
        for all 3-valued input combinations up to the max testable arity."""
        low, high = GATE_ARITY[kind]
        arities = {low, min(3, high or 3)}
        arities = {a for a in arities if a >= low and (high is None or a <= high)}
        for arity in sorted(arities):
            combos = list(itertools.product(VALUES, repeat=arity))
            # Pack every combo into its own bit position.
            packed_inputs = []
            for pin in range(arity):
                ones = zeros = 0
                for bit, combo in enumerate(combos):
                    o, z = _pack_scalar(combo[pin], bit)
                    ones |= o
                    zeros |= z
                packed_inputs.append((ones, zeros))
            packed_out = eval_gate_compiled(kind, packed_inputs,
                                            len(combos))
            for bit, combo in enumerate(combos):
                expected = eval_gate(kind, list(combo))
                assert _unpack_scalar(packed_out, bit) == expected, (
                    f"{kind}{combo}: packed disagrees with scalar"
                )

    @pytest.mark.parametrize("kind", sorted(GATE_KINDS))
    def test_planes_stay_disjoint(self, kind):
        """No machine may ever be both 0 and 1 (encoding invariant)."""
        low, _high = GATE_ARITY[kind]
        arity = max(low, 2) if kind not in ("NOT", "BUF") else 1
        combos = list(itertools.product(VALUES, repeat=arity))
        packed_inputs = []
        for pin in range(arity):
            ones = zeros = 0
            for bit, combo in enumerate(combos):
                o, z = _pack_scalar(combo[pin], bit)
                ones |= o
                zeros |= z
            packed_inputs.append((ones, zeros))
        ones, zeros = eval_gate_compiled(kind, packed_inputs, len(combos))
        assert ones & zeros == 0


# -- value conversion and arity ----------------------------------------------------


class TestValuesAndArity:
    def test_char_roundtrip(self):
        for char, value in (("0", ZERO), ("1", ONE), ("x", X)):
            assert value_from_char(char) == value
        assert value_from_char("X") == X
        assert value_from_char("-") == X

    def test_value_to_char(self):
        assert value_to_char(ZERO) == "0"
        assert value_to_char(ONE) == "1"
        assert value_to_char(X) == "x"

    def test_bad_char(self):
        with pytest.raises(ValueError):
            value_from_char("2")

    def test_bad_value(self):
        with pytest.raises(ValueError):
            value_to_char(7)

    def test_invert(self):
        assert invert(ZERO) == ONE
        assert invert(ONE) == ZERO
        assert invert(X) == X

    def test_not_is_unary(self):
        with pytest.raises(ValueError):
            check_arity("NOT", 2)

    def test_xor_needs_two(self):
        with pytest.raises(ValueError):
            check_arity("XOR", 1)

    def test_and_unbounded(self):
        check_arity("AND", 1)
        check_arity("AND", 17)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            check_arity("LATCH", 1)


# -- property-based: packed == scalar on random wide gates -------------------------


@given(
    kind=st.sampled_from(["AND", "NAND", "OR", "NOR", "XOR", "XNOR"]),
    rows=st.lists(
        st.lists(st.sampled_from(VALUES), min_size=2, max_size=6),
        min_size=1,
        max_size=40,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1),
)
def test_packed_matches_scalar_random(kind, rows):
    """Arbitrary packed widths and arities: each bit lane evaluates as the
    scalar semantics of its row."""
    arity = len(rows[0])
    packed_inputs = []
    for pin in range(arity):
        ones = zeros = 0
        for bit, row in enumerate(rows):
            o, z = _pack_scalar(row[pin], bit)
            ones |= o
            zeros |= z
        packed_inputs.append((ones, zeros))
    packed_out = eval_gate_compiled(kind, packed_inputs, len(rows))
    for bit, row in enumerate(rows):
        assert _unpack_scalar(packed_out, bit) == eval_gate(kind, row)
