"""Canonical fingerprints for the content-addressed result store.

Every cached artifact is addressed by two coordinates:

* a **circuit fingerprint** — a stable SHA-256 over the canonical form
  of the netlist (primary inputs and outputs *in declaration order*,
  gates and flip-flops in a sorted normal form).  The circuit *name* is
  deliberately excluded: two structurally identical netlists share
  results no matter what they are called, and renaming a circuit must
  not fake a miss.  IO order **is** significant — test vectors are
  tuples aligned with the input order, so permuting inputs changes
  every derived artifact;
* a **config fingerprint** — a SHA-256 over the semantically relevant
  knobs of the producing stage plus :data:`CACHE_SCHEMA`.  Settings
  that cannot change a bit-identical result (``jobs``, ``cache_dir``,
  ``run_index``) are excluded by construction: callers simply never
  feed them in.

:func:`circuit_fingerprint` is memoized on the circuit object, keyed by
the *identity* of its netlist tuples: :class:`~repro.circuit.netlist.
Circuit` is immutable by convention but plain Python, so in-place
mutation is physically possible (synth edits, tests).  Holding
references to the tuples and comparing with ``is`` makes the common
path O(1) while any rebinding of ``inputs``/``outputs``/``gates``/
``flops`` forces a recompute — the same guard
:func:`~repro.sim.fault_sim.compiled_topology` now uses to drop stale
packed topologies.
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterable, Sequence

from ..circuit.netlist import Circuit
from ..circuit.scan import ScanCircuit
from ..faults.model import Fault

#: Global cache schema version.  Bump on any change to fingerprint
#: canonicalization or payload encodings: every existing entry then
#: misses (self-invalidation) instead of decoding garbage.
CACHE_SCHEMA = 1

_MEMO_ATTR = "_fingerprint_memo"


def hash_payload(payload) -> str:
    """SHA-256 hex digest of a JSON-serializable payload in canonical
    form (sorted keys, no whitespace)."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _netlist_key(circuit: Circuit) -> tuple:
    """The identity tuple the memo is keyed on."""
    return (circuit.inputs, circuit.outputs, circuit.gates, circuit.flops)


def circuit_fingerprint(circuit: Circuit) -> str:
    """Stable content hash of a circuit's netlist (name excluded)."""
    key = _netlist_key(circuit)
    memo = getattr(circuit, _MEMO_ATTR, None)
    if memo is not None:
        old_key, digest = memo
        if all(new is old for new, old in zip(key, old_key)):
            return digest
    digest = hash_payload({
        "inputs": list(circuit.inputs),
        "outputs": list(circuit.outputs),
        "gates": sorted(
            [gate.output, gate.kind, list(gate.inputs)]
            for gate in circuit.gates
        ),
        "flops": sorted([flop.q, flop.d] for flop in circuit.flops),
    })
    circuit.__dict__[_MEMO_ATTR] = (key, digest)
    return digest


def scan_config_fingerprint(scan_circuit: ScanCircuit) -> str:
    """Hash of the scan configuration: chain membership/order, serial
    IO nets and the select net (the Section 2 completions depend on
    all of them, beyond the raw ``C_scan`` netlist)."""
    return hash_payload({
        "select": scan_circuit.select_net,
        "chains": [
            [chain.scan_in, chain.scan_out, list(chain.order)]
            for chain in scan_circuit.chains
        ],
    })


def config_fingerprint(stage: str, **fields) -> str:
    """Hash of one stage's semantically relevant configuration.

    ``fields`` must be JSON-serializable; :data:`CACHE_SCHEMA` and the
    stage name are mixed in so distinct stages (and schema revisions)
    can never alias each other's entries.
    """
    return hash_payload({"schema": CACHE_SCHEMA, "stage": stage, **fields})


def faults_fingerprint(faults: Iterable[Fault]) -> str:
    """Hash of an *ordered* fault list (order defines the packing, so it
    is part of the identity)."""
    return hash_payload([
        [f.kind, f.net, f.consumer, f.pin, f.stuck_at] for f in faults
    ])


def vectors_fingerprint(vectors: Sequence[Sequence[int]]) -> str:
    """Hash of an ordered vector sequence."""
    return hash_payload([list(v) for v in vectors])
