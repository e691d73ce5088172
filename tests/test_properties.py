"""Cross-module property-based tests (hypothesis) on the pillars the
whole reproduction rests on:

1. packed fault simulation == independent scalar simulation,
2. fault-collapsing equivalence classes behave identically under test,
3. scan insertion preserves functional behaviour,
4. translation length == conventional cycle count,
5. compaction preserves detected fault sets.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atpg.scan_sim import scan_test_detections
from repro.circuit import insert_scan, random_circuit
from repro.circuit.gates import ZERO
from repro.compaction import omission_compact, restoration_compact
from repro.core import translate_test_set
from repro.faults import collapse_faults, enumerate_faults, equivalence_classes
from repro.sim import LogicSimulator, PackedFaultSimulator
from repro.testseq import ScanTest, ScanTestSet, TestSequence
from tests.test_fault_sim import naive_fault_run
from tests.util import random_vectors

circuit_params = st.tuples(
    st.integers(min_value=2, max_value=5),   # inputs
    st.integers(min_value=1, max_value=6),   # flops
    st.integers(min_value=6, max_value=40),  # gates
    st.integers(min_value=0, max_value=10_000),  # seed
)


@settings(max_examples=12, deadline=None)
@given(params=circuit_params, sim_seed=st.integers(0, 1000))
def test_packed_equals_naive_on_random_circuits(params, sim_seed):
    """The packed simulator agrees with the independent scalar reference
    on arbitrary circuits, for a sample of collapsed faults."""
    inputs, flops, gates, seed = params
    circuit = random_circuit("h", inputs, flops, max(gates, flops), seed=seed)
    faults = collapse_faults(circuit)[::4][:12]
    if not faults:
        return
    vectors = random_vectors(circuit, 25, seed=sim_seed)
    packed = PackedFaultSimulator(circuit, faults).run(vectors)
    for fault in faults:
        assert packed.detection_time.get(fault) == \
            naive_fault_run(circuit, fault, vectors)


@settings(max_examples=10, deadline=None)
@given(params=circuit_params, sim_seed=st.integers(0, 1000))
def test_equivalent_faults_detected_together(params, sim_seed):
    """Faults in one equivalence class are detected by exactly the same
    vectors — the defining property of equivalence collapsing."""
    inputs, flops, gates, seed = params
    circuit = random_circuit("h", inputs, flops, max(gates, flops), seed=seed)
    mapping = equivalence_classes(circuit)
    universe = enumerate_faults(circuit)
    vectors = random_vectors(circuit, 30, seed=sim_seed)
    result = PackedFaultSimulator(circuit, universe).run(vectors)
    by_class = {}
    for fault in universe:
        by_class.setdefault(mapping[fault], set()).add(
            result.detection_time.get(fault)
        )
    for representative, times in by_class.items():
        assert len(times) == 1, (
            f"class of {representative} detected inconsistently: {times}"
        )


@settings(max_examples=10, deadline=None)
@given(params=circuit_params, sim_seed=st.integers(0, 1000))
def test_scan_insertion_preserves_function(params, sim_seed):
    """With scan_sel=0 and matching reset state, C_scan's original outputs
    track C cycle for cycle."""
    inputs, flops, gates, seed = params
    if flops == 0:
        flops = 1
    circuit = random_circuit("h", inputs, flops, max(gates, flops), seed=seed)
    sc = insert_scan(circuit)
    rng = random.Random(sim_seed)
    state = tuple(rng.randint(0, 1) for _ in range(flops))
    orig = LogicSimulator(circuit)
    scan = LogicSimulator(sc.circuit)
    orig.reset(state)
    scan.reset(state)
    index = {net: i for i, net in enumerate(sc.circuit.inputs)}
    po_positions = [sc.circuit.outputs.index(po) for po in circuit.outputs]
    for _ in range(15):
        base = tuple(rng.randint(0, 1) for _ in range(inputs))
        vector = [ZERO] * len(sc.circuit.inputs)
        for name, value in zip(circuit.inputs, base):
            vector[index[name]] = value
        expected = orig.step(base)
        got = scan.step(tuple(vector))
        assert tuple(got[i] for i in po_positions) == expected
        assert scan.state == orig.state


@settings(max_examples=10, deadline=None)
@given(
    params=circuit_params,
    test_lens=st.lists(st.integers(min_value=1, max_value=4),
                       min_size=1, max_size=4),
    fill_seed=st.integers(0, 1000),
)
def test_translation_length_is_cycle_count(params, test_lens, fill_seed):
    """len(translate(S)) == S.total_cycles() for arbitrary test sets."""
    inputs, flops, gates, seed = params
    if flops == 0:
        flops = 1
    circuit = random_circuit("h", inputs, flops, max(gates, flops), seed=seed)
    sc = insert_scan(circuit)
    rng = random.Random(fill_seed)
    ts = ScanTestSet(circuit)
    for t_len in test_lens:
        ts.append(ScanTest(
            tuple(rng.randint(0, 1) for _ in range(flops)),
            tuple(tuple(rng.randint(0, 1) for _ in range(inputs))
                  for _ in range(t_len)),
        ))
    seq = translate_test_set(sc, ts)
    assert len(seq) == ts.total_cycles()


@settings(max_examples=6, deadline=None)
@given(params=circuit_params, sim_seed=st.integers(0, 1000))
def test_compaction_preserves_detection(params, sim_seed):
    """Restoration then omission never loses a detected fault, on random
    circuits with random sequences."""
    inputs, flops, gates, seed = params
    circuit = random_circuit("h", inputs, flops, max(gates, flops), seed=seed)
    faults = collapse_faults(circuit)
    sequence = TestSequence.for_circuit(
        circuit, random_vectors(circuit, 40, seed=sim_seed), scan_sel=None
    )
    before = set(
        PackedFaultSimulator(circuit, faults)
        .run(list(sequence)).detection_time
    )
    restored = restoration_compact(circuit, sequence, faults)
    omitted = omission_compact(circuit, restored.sequence, faults)
    after = set(
        PackedFaultSimulator(circuit, faults)
        .run(list(omitted.sequence)).detection_time
    )
    assert before <= after
    assert len(omitted.sequence) <= len(restored.sequence) <= len(sequence)


@settings(max_examples=8, deadline=None)
@given(params=circuit_params, state_seed=st.integers(0, 1000))
def test_scan_test_simulation_state_exact(params, state_seed):
    """Conventional scan-test semantics: detection masks are subsets of
    the fault mask and repeatable."""
    inputs, flops, gates, seed = params
    if flops == 0:
        flops = 1
    circuit = random_circuit("h", inputs, flops, max(gates, flops), seed=seed)
    faults = collapse_faults(circuit)[:20]
    if not faults:
        return
    rng = random.Random(state_seed)
    test = ScanTest(
        tuple(rng.randint(0, 1) for _ in range(flops)),
        (tuple(rng.randint(0, 1) for _ in range(inputs)),),
    )
    sim = PackedFaultSimulator(circuit, faults)
    first = scan_test_detections(sim, test)
    second = scan_test_detections(sim, test)
    assert first == second
    assert first & ~sim.fault_mask == 0
