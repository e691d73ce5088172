"""JSON payload codecs for the cached pipeline artifacts.

Everything the store persists round-trips through these helpers, and
each one preserves the exact structure a cold run produced:

* faults encode to ``[kind, net, consumer, pin, stuck_at]`` — the value
  identity of :class:`~repro.faults.model.Fault`, so a decoded fault is
  ``==`` (and hashes equal) to the one the cold run held;
* detection maps encode as **ordered pair lists**, never objects: the
  restoration procedure's stable hardest-first sort consumes the dict's
  insertion order, so a warm run must rebuild the dict in the exact
  order the cold run's simulator emitted it;
* inside a ``flow`` entry, which carries its own collapsed universe,
  fault sets and detection maps encode as **integer indices** into that
  universe (:func:`encode_indices`), so a replay builds each
  :class:`~repro.faults.model.Fault` once instead of once per set;
* sequences encode with their input header and ``scan_sel`` column so a
  decoded :class:`~repro.testseq.sequences.TestSequence` revalidates its
  vector widths on construction.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from ..faults.model import Fault
from ..testseq.sequences import TestSequence


def encode_fault(fault: Fault) -> list:
    return [fault.kind, fault.net, fault.consumer, fault.pin, fault.stuck_at]


def decode_fault(data: Sequence) -> Fault:
    kind, net, consumer, pin, stuck_at = data
    return Fault(kind=kind, net=net, consumer=consumer,
                 pin=pin, stuck_at=stuck_at)


def encode_faults(faults: Iterable[Fault]) -> List[list]:
    return [encode_fault(f) for f in faults]


def decode_faults(data: Iterable[Sequence]) -> List[Fault]:
    return [decode_fault(item) for item in data]


def encode_times(times: Dict[Fault, int]) -> List[list]:
    """Detection map -> ordered ``[[fault, t], ...]`` pair list."""
    return [[encode_fault(f), t] for f, t in times.items()]


def decode_times(data: Iterable[Sequence]) -> Dict[Fault, int]:
    """Inverse of :func:`encode_times`; insertion order preserved."""
    return {decode_fault(item): t for item, t in data}


def encode_indices(faults: Iterable[Fault],
                   index: Dict[Fault, int]) -> List[int]:
    """Faults -> their positions in the universe ``index`` maps."""
    return [index[f] for f in faults]


def decode_indices(data: Sequence[int],
                   universe: Sequence[Fault]) -> List[Fault]:
    """Inverse of :func:`encode_indices`.  An index outside the universe
    raises ``IndexError`` (or ``TypeError``) instead of wrapping
    around."""
    if data and min(data) < 0:
        raise IndexError("negative fault index")
    return [universe[i] for i in data]


def encode_indexed_times(times: Dict[Fault, int],
                         index: Dict[Fault, int]) -> List[list]:
    """Detection map -> ordered ``[[position, t], ...]`` pair list."""
    return [[index[f], t] for f, t in times.items()]


def decode_indexed_times(data: Sequence[Sequence],
                         universe: Sequence[Fault]) -> Dict[Fault, int]:
    """Inverse of :func:`encode_indexed_times`; insertion order
    preserved."""
    faults = decode_indices([i for i, _ in data], universe)
    return dict(zip(faults, (t for _, t in data)))


def encode_sequence(sequence: TestSequence) -> dict:
    return {
        "inputs": list(sequence.inputs),
        "scan_sel": sequence.scan_sel,
        "vectors": [list(v) for v in sequence.vectors],
    }


def decode_sequence(data: dict) -> TestSequence:
    return TestSequence(
        inputs=data["inputs"],
        vectors=data["vectors"],
        scan_sel=data["scan_sel"],
    )
