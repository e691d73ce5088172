"""Section 3: translating a conventional scan test set into a ``C_scan``
test sequence.

Given a test set ``S = {(SI_i, T_i)}`` produced under the first or second
approach, the translation emits one vector per clock cycle of the
conventional application scheme, expressed over the inputs of ``C_scan``:

* each scan operation becomes ``N_SV`` explicit vectors with
  ``scan_sel = 1`` and ``scan_inp`` carrying the next ``SI`` *reversed*
  (the value destined for the flip-flop nearest ``scan_out`` enters
  first) — original primary inputs are unspecified (X);
* each functional vector of ``T_i`` is emitted with ``scan_sel = 0`` and
  ``scan_inp = X``;
* a final scan operation with unspecified ``scan_inp`` scans out the last
  state.

Intermediate scan operations simultaneously scan out test ``i``'s final
state and scan in ``SI_{i+1}`` — the overlap that makes conventional
cycle counts ``sum(N_SV + |T_i|) + N_SV``, which is exactly the length of
the translated sequence (checked by the test suite).

The unspecified (X) entries are what gives the non-scan compaction
procedures of Section 4 their leverage; the paper randomly fills them
before application, and :meth:`TestSequence.randomize_x` does the same.
The translated sequence is guaranteed to detect every fault the original
set detects, *provided the faults do not corrupt the scan logic itself* —
for faults inside the added scan muxes the guarantee is re-established by
fault simulation downstream.
"""

from __future__ import annotations

from typing import List, Tuple

from ..circuit.gates import X, ZERO
from ..circuit.scan import ScanCircuit
from ..testseq.scan_tests import ScanTestSet
from ..testseq.sequences import TestSequence


def translate_test_set(
    scan_circuit: ScanCircuit, test_set: ScanTestSet
) -> TestSequence:
    """Translate ``test_set`` (for circuit ``C``) into one test sequence
    for ``C_scan`` per Section 3 of the paper.

    The test set must target the circuit ``C`` the scan circuit was built
    from (same primary inputs and flip-flop count).
    """
    circuit = scan_circuit.circuit
    if tuple(test_set.circuit.inputs) != tuple(scan_circuit.original_inputs):
        raise ValueError(
            "test set was generated for a different circuit than the scan "
            f"circuit's original ({test_set.circuit.name} vs inputs of "
            f"{circuit.name})"
        )
    if test_set.circuit.num_state_vars != sum(
        chain.length for chain in scan_circuit.chains
    ):
        raise ValueError("state variable count mismatch")

    input_index = {net: i for i, net in enumerate(circuit.inputs)}
    sel_idx = input_index[scan_circuit.scan_select]
    original_idx = [input_index[n] for n in scan_circuit.original_inputs]
    width = len(circuit.inputs)

    vectors: List[Tuple[int, ...]] = []
    for test in test_set:
        vectors.extend(scan_circuit.scan_in_vectors(test.scan_in))
        for functional in test.vectors:
            vector = [X] * width
            vector[sel_idx] = ZERO
            for idx, value in zip(original_idx, functional):
                vector[idx] = value
            vectors.append(tuple(vector))
    if test_set.tests:
        # The last scan operation only scans the final state out.
        vectors.extend(
            [scan_circuit.shift_vector()] * scan_circuit.max_chain_length)

    return TestSequence(
        circuit.inputs, vectors, scan_sel=scan_circuit.scan_select
    )
