"""Big-circuit corpus: named synthetic families plus the shared loader.

The paper's large tables run on circuits (s15850, s38417, b17, ...) whose
netlists are not redistributable here.  This module gives the rest of the
package a uniform way to get *something of that scale* on the bench:

* :data:`CORPUS` — a registry of :class:`CorpusSpec` entries recording
  each circuit's published interface numbers (PI/PO/FF/gate counts) and
  a per-family depth profile.
* :func:`synth_like` — a seeded :func:`~repro.circuit.synth.random_circuit`
  matching those numbers; ``synth_like("s15850")`` is deterministic and
  cheap (well under a second at 10k gates).
* :func:`load_circuit` — the suffix-dispatched loader every CLI
  subcommand shares.  It understands real ``.bench``/``.v`` files
  (case-insensitive suffixes), ``corpus:<name>`` specs, and fails with a
  one-line "unsupported extension" error for formats we do not read
  (``.blif``, ``.vhd``, ...), instead of a bench-parser traceback.
* :func:`flow_overrides` — deterministic reduced-effort flow presets for
  corpus-scale runs (bounded targeted-ATPG budget, no per-fault PODEM
  redundancy proofs, auto checkpoint policy), so a full
  ``repro-atpg generate corpus:s15850`` flow finishes in CI wall budgets.

Corpus circuits are *stand-ins*: interface and scale match the published
circuit, logic does not.  Results on them are for scale/perf work (the
``big-circuit-smoke`` CI job, fault-ordering experiments), never for
comparing against the paper's per-circuit tables.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from .bench import load_bench
from .netlist import Circuit, CircuitError
from .synth import random_circuit
from .verilog import load_verilog

#: Spec prefix accepted anywhere a circuit path/name is accepted.
CORPUS_PREFIX = "corpus:"


@dataclass(frozen=True)
class CorpusSpec:
    """One corpus family: published interface numbers plus shape knobs."""

    name: str
    family: str        # "iscas89" | "itc99"
    num_inputs: int    # published primary inputs (non-scan)
    num_outputs: int   # published primary outputs
    num_flops: int     # published flip-flop count
    num_gates: int     # published combinational gate count
    #: Input-selection locality for :func:`random_circuit`; higher means
    #: deeper logic (the ITC-99 controllers are deeper than ISCAS-89).
    locality: float = 0.75


def _spec(name: str, family: str, pi: int, po: int, ff: int, gates: int,
          locality: float) -> CorpusSpec:
    return CorpusSpec(name, family, pi, po, ff, gates, locality)


#: Big-circuit families, keyed by published name.  Interface numbers are
#: the commonly cited ones for the ISCAS-89 and ITC-99 distributions.
CORPUS: Dict[str, CorpusSpec] = {
    spec.name: spec
    for spec in (
        _spec("s9234", "iscas89", 36, 39, 211, 5597, 0.75),
        _spec("s13207", "iscas89", 62, 152, 638, 7951, 0.75),
        _spec("s15850", "iscas89", 77, 150, 534, 9772, 0.75),
        _spec("s38417", "iscas89", 28, 106, 1636, 22179, 0.75),
        _spec("s38584", "iscas89", 38, 304, 1426, 19253, 0.75),
        _spec("b14", "itc99", 32, 54, 245, 9767, 0.85),
        _spec("b15", "itc99", 36, 70, 449, 8367, 0.85),
        _spec("b17", "itc99", 37, 97, 1415, 30777, 0.85),
        _spec("b20", "itc99", 32, 22, 490, 19682, 0.85),
        _spec("b22", "itc99", 32, 22, 735, 29162, 0.85),
    )
}


def corpus_names() -> List[str]:
    """Registered corpus family names, in registry order."""
    return list(CORPUS)


def corpus_seed(name: str) -> int:
    """Stable per-family seed (CRC of the name, like the suite's)."""
    return zlib.crc32(name.encode()) & 0x7FFFFFFF


def synth_like(name: str, seed: Optional[int] = None) -> Circuit:
    """A seeded synthetic circuit matching ``name``'s published scale.

    ``seed`` defaults to :func:`corpus_seed`, so ``synth_like("s15850")``
    is one fixed circuit everywhere (CI, benchmarks, the serve daemon).
    Passing an explicit seed yields an independent same-scale instance —
    that is how fault-ordering experiments get a *population* of
    s15850-class circuits.
    """
    try:
        spec = CORPUS[name]
    except KeyError:
        known = ", ".join(corpus_names())
        raise CircuitError(
            f"unknown corpus circuit {name!r} (known: {known})"
        ) from None
    if seed is None:
        seed = corpus_seed(name)
    return random_circuit(
        spec.name,
        spec.num_inputs,
        spec.num_flops,
        spec.num_gates,
        seed=seed,
        num_outputs=spec.num_outputs,
        locality=spec.locality,
    )


def is_corpus_spec(spec: str) -> bool:
    """True for ``corpus:<name>`` strings (the name may be unknown)."""
    return spec.startswith(CORPUS_PREFIX)


def corpus_name(spec: str) -> str:
    """The family name inside a ``corpus:<name>`` spec."""
    return spec[len(CORPUS_PREFIX):].strip()


#: suffix (lowercase) -> loader for real netlist files.
_LOADERS: Dict[str, Callable[[Path], Circuit]] = {
    ".bench": load_bench,
    ".v": load_verilog,
    ".verilog": load_verilog,
}

#: Formats we recognize but do not read; named so the error can say
#: "unsupported" instead of handing the file to the bench parser.
_KNOWN_UNSUPPORTED = {
    ".blif", ".vhd", ".vhdl", ".edif", ".edf", ".aig", ".aag", ".json",
}


def load_circuit(spec: Union[str, Path]) -> Circuit:
    """Load a circuit from a ``corpus:<name>`` spec or a netlist path.

    Dispatch is on the (case-insensitive) suffix: ``.bench`` via
    :func:`~repro.circuit.bench.load_bench`, ``.v``/``.verilog`` via
    :func:`~repro.circuit.verilog.load_verilog`.  Recognized-but-unread
    formats fail with a one-line :class:`CircuitError`; a missing file
    raises :class:`FileNotFoundError`.  A suffix-less existing file is
    assumed to be ``.bench`` (the common way benchmark archives unpack).
    """
    if isinstance(spec, str) and is_corpus_spec(spec):
        return synth_like(corpus_name(spec))
    path = Path(spec)
    suffix = path.suffix.lower()
    loader = _LOADERS.get(suffix)
    if loader is not None:
        return loader(path)
    if suffix in _KNOWN_UNSUPPORTED:
        supported = ", ".join(sorted(_LOADERS))
        raise CircuitError(
            f"{path.name}: unsupported netlist extension {suffix!r} "
            f"(supported: {supported}, or a corpus:<name> spec)"
        )
    if path.exists():
        return load_bench(path)
    raise FileNotFoundError(f"no such netlist file: {path}")


def atpg_config_for(name: str, seed_offset: int = 0):
    """Deterministic corpus-scale sequential-ATPG preset.

    Far below the experiment suite's presets on purpose: at 40k+
    collapsed faults the random preamble plus fault dropping does the
    bulk of the detection, and the targeted search is capped
    (``max_targeted_faults``) so wall-clock is bounded regardless of how
    many hard faults survive the preamble.  ``seed_offset`` mixes the
    flow seed in, matching the suite's convention.
    """
    from ..atpg.seq_atpg import SeqATPGConfig

    return SeqATPGConfig(
        seed=corpus_seed(name) ^ seed_offset,
        initial_random_vectors=64,
        candidates_per_step=3,
        max_subseq_len=16,
        restarts=1,
        max_stale_steps=4,
        max_targeted_faults=8,
    )


def baseline_config_for(name: str, seed_offset: int = 0):
    """Corpus-scale preset for the conventional second-approach ATPG."""
    from ..atpg.scan_seq import SecondApproachConfig

    return SecondApproachConfig(
        seed=corpus_seed(name) ^ seed_offset,
        candidates_per_step=3,
        max_test_length=4,
    )


def flow_overrides(spec: str, seed_offset: int = 0) -> Dict[str, object]:
    """`FlowConfig.replace` overrides for running a corpus-spec flow.

    Applied by the CLI when the circuit argument is ``corpus:<name>``:
    reduced ATPG effort and no per-fault PODEM redundancy proofs.  On
    the comb view of scan
    s15850 (11.9k gates; 2-vCPU x86-64 VM, Python 3.11) one PODEM run
    takes about 5 ms when it finds a cube, 0.1 s when it exhausts the
    justification budget of 400 backtracks (25 s before implication
    became event-driven) and 5 s when it exhausts the redundancy budget
    of 20000, while the preset leaves about a third of the 41k faults
    aborted.  The Section 2 completions are also off: each scan-out
    completion appends a whole chain flush (``flops + 1`` vectors —
    535 at s15850), which the quadratic omission sweep then pays for.
    Every override changes result bits.
    """
    name = corpus_name(spec) if is_corpus_spec(spec) else spec
    return {
        "atpg": atpg_config_for(name, seed_offset),
        "baseline": baseline_config_for(name, seed_offset),
        "classify_redundant": False,
        "use_scan_knowledge": False,
        "use_justification": False,
    }
