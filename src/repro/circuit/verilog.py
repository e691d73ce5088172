"""Structural Verilog reader/writer (gate-primitive netlists).

Many circuit distributions (and most EDA courses) exchange the ISCAS
benchmarks as gate-level structural Verilog rather than ``.bench``.
This module handles the common primitive-instantiation subset::

    module s27 (G0, G1, G2, G3, G17);
      input  G0, G1, G2, G3;
      output G17;
      wire   G5, G6, G7, G8;

      not  NOT_0 (G14, G0);       // (output, input)
      and  AND2_0 (G8, G14, G6);  // (output, inputs...)
      dff  DFF_0 (G5, G10);       // (q, d)
    endmodule

Supported primitives: ``and or nand nor xor xnor not buf`` (any arity the
gate allows) and ``dff`` with ``(q, d)`` ports — the exact vocabulary of
the :mod:`repro.circuit.netlist` model.  Instance names are optional;
``//`` and ``/* */`` comments are stripped; multiple declaration
statements and multi-line instances are fine.  Anything fancier
(assign, always, vectors, parameters) is rejected with a clear error —
this is a netlist bridge, not a Verilog frontend.

The writer emits the same canonical subset, so circuits round-trip
bit-identically through ``parse_verilog(write_verilog(c))``.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, List, Union

from .gates import GATE_KINDS
from .netlist import Circuit, CircuitError, FlipFlop, Gate

_PRIMITIVES = {kind.lower(): kind for kind in GATE_KINDS}

_IDENT = r"[A-Za-z_\\][A-Za-z0-9_$.\[\]\\]*"

_MODULE_RE = re.compile(
    rf"module\s+({_IDENT})\s*\(([^)]*)\)\s*;", re.DOTALL
)
_DECL_RE = re.compile(rf"^(input|output|wire)\s+(.+)$", re.DOTALL)
_INSTANCE_RE = re.compile(
    rf"^({_IDENT})\s+(?:({_IDENT})\s+)?\(([^)]*)\)$", re.DOTALL
)


def _strip_comments(text: str) -> str:
    # Preserve line structure so parse errors can report the physical
    # line a statement starts on.
    def _keep_newlines(match: "re.Match[str]") -> str:
        return "\n" * match.group(0).count("\n")

    text = re.sub(r"/\*.*?\*/", _keep_newlines, text, flags=re.DOTALL)
    return re.sub(r"//[^\n]*", " ", text)


def _split_names(blob: str) -> List[str]:
    return [name.strip() for name in blob.split(",") if name.strip()]


def parse_verilog(text: str, name: str = None) -> Circuit:
    """Parse one structural-Verilog module into a :class:`Circuit`.

    ``name`` overrides the module name.  Raises :class:`CircuitError` on
    unsupported constructs or structural problems.
    """
    text = _strip_comments(text)
    header = _MODULE_RE.search(text)
    if not header:
        raise CircuitError("no module header found")
    module_name = name or header.group(1)
    body_start = header.end()
    end = text.find("endmodule", body_start)
    if end < 0:
        raise CircuitError(f"{module_name}: missing endmodule")
    body = text[body_start:end]

    inputs: List[str] = []
    outputs: List[str] = []
    gates: List[Gate] = []
    flops: List[FlipFlop] = []
    counter = 0

    line_base = text.count("\n", 0, body_start) + 1
    offset = 0
    for raw in body.split(";"):
        segment_start = offset
        offset += len(raw) + 1
        statement = " ".join(raw.split())
        if not statement:
            continue
        leading = len(raw) - len(raw.lstrip())
        lineno = line_base + body.count("\n", 0, segment_start + leading)
        where = f"{module_name}:{lineno}"
        decl = _DECL_RE.match(statement)
        if decl:
            kind, names = decl.group(1), _split_names(decl.group(2))
            if any("[" in n for n in names):
                raise CircuitError(
                    f"{where}: vector declarations are not supported "
                    f"({statement!r})"
                )
            if kind == "input":
                inputs.extend(names)
            elif kind == "output":
                outputs.extend(names)
            # wires carry no information we need
            continue
        inst = _INSTANCE_RE.match(statement)
        if not inst:
            raise CircuitError(
                f"{where}: unsupported statement {statement!r}"
            )
        primitive = inst.group(1).lower()
        ports = _split_names(inst.group(3))
        counter += 1
        if primitive == "dff":
            if len(ports) != 2:
                raise CircuitError(
                    f"{where}: dff takes (q, d), got {len(ports)} ports"
                )
            flops.append(FlipFlop(q=ports[0], d=ports[1]))
        elif primitive in _PRIMITIVES:
            if len(ports) < 2:
                raise CircuitError(
                    f"{where}: {primitive} needs an output and at "
                    f"least one input"
                )
            try:
                gates.append(Gate(
                    output=ports[0],
                    kind=_PRIMITIVES[primitive],
                    inputs=tuple(ports[1:]),
                ))
            except ValueError as exc:
                raise CircuitError(f"{where}: {exc}") from exc
        else:
            raise CircuitError(
                f"{where}: unsupported primitive {primitive!r} "
                "(assign/always are out of scope; see module docstring)"
            )

    return Circuit(name=module_name, inputs=inputs, outputs=outputs,
                   gates=gates, flops=flops)


def load_verilog(path: Union[str, Path]) -> Circuit:
    """Load a circuit from a structural-Verilog file."""
    path = Path(path)
    return parse_verilog(path.read_text(), name=None)


def write_verilog(circuit: Circuit) -> str:
    """Serialize a circuit to the canonical structural-Verilog subset
    (every gate kind is a Verilog gate primitive)."""
    ports = list(circuit.inputs) + list(circuit.outputs)
    lines = [f"module {circuit.name} ({', '.join(ports)});"]
    if circuit.inputs:
        lines.append(f"  input  {', '.join(circuit.inputs)};")
    if circuit.outputs:
        lines.append(f"  output {', '.join(circuit.outputs)};")
    io_nets = set(circuit.inputs) | set(circuit.outputs)
    wires = [n for n in circuit.nets() if n not in io_nets]
    if wires:
        lines.append(f"  wire   {', '.join(wires)};")
    lines.append("")
    for index, flop in enumerate(circuit.flops):
        lines.append(f"  dff DFF_{index} ({flop.q}, {flop.d});")
    for index, gate in enumerate(circuit.gates):
        ports = ", ".join((gate.output,) + gate.inputs)
        lines.append(f"  {gate.kind.lower()} U{index} ({ports});")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


def save_verilog(circuit: Circuit, path: Union[str, Path]) -> None:
    """Write a circuit to ``path`` as structural Verilog."""
    Path(path).write_text(write_verilog(circuit))
