"""Gate primitives for the gate-level netlist.

The netlist model follows the ISCAS-89 ``.bench`` convention: a circuit is
a set of named nets, each driven by a primary input, a combinational gate,
or a D flip-flop.  This module defines the combinational gate kinds, their
arity constraints, and their three-valued (0/1/X) evaluation semantics in
both scalar form (one value per net, used by the reference logic
simulator) and *packed* form (one arbitrary-precision integer pair per
net, bit ``f`` belonging to fault machine ``f``, evaluated by the
bit-parallel fault simulators in :func:`repro.sim.fault_sim._eval_gates`).

Three-valued packed encoding
----------------------------
A packed value is a pair of Python ints ``(ones, zeros)``:

* bit ``f`` set in ``ones``  -> machine ``f`` sees logic 1,
* bit ``f`` set in ``zeros`` -> machine ``f`` sees logic 0,
* bit ``f`` set in neither   -> machine ``f`` sees X (unknown).

A bit must never be set in both planes; the packed evaluator preserves
this invariant.  The encoding makes the common gates one or two bitwise
operations wide regardless of how many fault machines are packed.
"""

from __future__ import annotations

from typing import Dict, Tuple

# Scalar three-valued constants.  X is deliberately the last value so that
# arrays indexed by value can use position 2 for the unknown case.
ZERO = 0
ONE = 1
X = 2

_CHAR_TO_VALUE = {"0": ZERO, "1": ONE, "x": X, "X": X, "-": X}
_VALUE_TO_CHAR = {ZERO: "0", ONE: "1", X: "x"}

#: Combinational gate kinds understood by the netlist and simulators.
#: ``arity`` is (min_inputs, max_inputs); ``None`` means unbounded.
GATE_ARITY: Dict[str, Tuple[int, object]] = {
    "AND": (1, None),
    "NAND": (1, None),
    "OR": (1, None),
    "NOR": (1, None),
    "XOR": (2, None),
    "XNOR": (2, None),
    "NOT": (1, 1),
    "BUF": (1, 1),
}

GATE_KINDS = frozenset(GATE_ARITY)

#: Controlling value per gate kind (value on any input that fixes the
#: output), or ``None`` when the gate has no controlling value.  Used by
#: the PODEM backtrace and by testability heuristics.
CONTROLLING_VALUE: Dict[str, object] = {
    "AND": ZERO,
    "NAND": ZERO,
    "OR": ONE,
    "NOR": ONE,
    "XOR": None,
    "XNOR": None,
    "NOT": None,
    "BUF": None,
}

#: Whether the gate inverts: the output with all inputs non-controlling
#: (or the single input, for NOT/BUF) is complemented.
INVERTING: Dict[str, bool] = {
    "AND": False,
    "NAND": True,
    "OR": False,
    "NOR": True,
    "XOR": False,
    "XNOR": True,
    "NOT": True,
    "BUF": False,
}


def value_from_char(char: str) -> int:
    """Map a vector character (``0 1 x X -``) to a scalar value."""
    try:
        return _CHAR_TO_VALUE[char]
    except KeyError:
        raise ValueError(f"not a logic value character: {char!r}") from None


def value_to_char(value: int) -> str:
    """Map a scalar value back to its canonical character."""
    try:
        return _VALUE_TO_CHAR[value]
    except KeyError:
        raise ValueError(f"not a logic value: {value!r}") from None


def invert(value: int) -> int:
    """Three-valued NOT."""
    if value == X:
        return X
    return ONE - value


def eval_gate(kind: str, values) -> int:
    """Evaluate one gate in scalar three-valued logic.

    ``values`` is the sequence of input values in pin order.  This is the
    reference semantics; the packed evaluator in :mod:`repro.sim.fault_sim`
    must agree with it bit-for-bit (a property the test suite checks
    exhaustively).
    """
    if kind == "NOT":
        return invert(values[0])
    if kind == "BUF":
        return values[0]
    if kind in ("AND", "NAND"):
        result = ONE
        for v in values:
            if v == ZERO:
                result = ZERO
                break
            if v == X:
                result = X
        return invert(result) if kind == "NAND" else result
    if kind in ("OR", "NOR"):
        result = ZERO
        for v in values:
            if v == ONE:
                result = ONE
                break
            if v == X:
                result = X
        return invert(result) if kind == "NOR" else result
    if kind in ("XOR", "XNOR"):
        result = ZERO
        for v in values:
            if v == X:
                return X
            result ^= v
        return invert(result) if kind == "XNOR" else result
    raise ValueError(f"unknown gate kind: {kind!r}")


def check_arity(kind: str, num_inputs: int) -> None:
    """Raise ``ValueError`` when ``num_inputs`` is illegal for ``kind``."""
    try:
        low, high = GATE_ARITY[kind]
    except KeyError:
        raise ValueError(f"unknown gate kind: {kind!r}") from None
    if num_inputs < low or (high is not None and num_inputs > high):
        raise ValueError(
            f"{kind} gate takes "
            f"{'exactly ' + str(low) if high == low else 'at least ' + str(low)}"
            f" input(s), got {num_inputs}"
        )
