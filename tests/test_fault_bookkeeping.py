"""Linear-time fault bookkeeping against the naive loops it replaced.

The integer-id collapse, the first-detection decoding of the sequential
ATPG, the bit-string mask scans and the session's packing conversions
must give exactly what the per-fault and per-bit references in
``tests/util.py`` give, on random circuits.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.atpg import SeqATPGConfig, SequentialATPG
from repro.atpg import seq_atpg
from repro.circuit import insert_scan, random_circuit
from repro.faults import collapse_faults, enumerate_faults, equivalence_classes
from repro.sim import SimSession, iter_fault_positions, positions_mask
from repro.sim.fault_sim import bit_gather

from tests.util import (
    random_vectors,
    reference_collapse_faults,
    reference_decode_atpg,
    reference_equivalence_classes,
    reference_fault_positions,
    reference_mask_of,
    reference_to_external,
    reference_to_internal,
)

shapes = st.tuples(
    st.integers(min_value=1, max_value=5),       # inputs
    st.integers(min_value=0, max_value=5),       # flops
    st.integers(min_value=5, max_value=40),      # gates
    st.integers(min_value=0, max_value=10_000),  # circuit seed
)


def _circuit(shape, scan):
    inputs, flops, gates, seed = shape
    circuit = random_circuit("book", inputs, flops, max(gates, flops),
                             seed=seed)
    if scan and flops:
        circuit = insert_scan(circuit).circuit
    return circuit


# -- mask scans ---------------------------------------------------------------


def test_fault_positions_edge_masks():
    assert list(iter_fault_positions(0)) == []
    assert list(iter_fault_positions(1)) == []  # the fault-free machine
    assert list(iter_fault_positions(0b10)) == [0]
    dense = (1 << 300) - 1
    assert list(iter_fault_positions(dense)) == list(range(299))
    assert list(iter_fault_positions(dense & ~1)) == list(range(299))


@settings(max_examples=200, deadline=None)
@given(width=st.integers(0, 400), density=st.floats(0, 1),
       seed=st.integers(0, 10_000))
def test_fault_positions_match_reference(width, density, seed):
    rng = random.Random(seed)
    mask = sum(1 << bit for bit in range(width) if rng.random() < density)
    assert list(iter_fault_positions(mask)) == reference_fault_positions(mask)


@settings(max_examples=100, deadline=None)
@given(width=st.integers(1, 300), seed=st.integers(0, 10_000))
def test_bit_gather_matches_reference(width, seed):
    rng = random.Random(seed)
    bits = [rng.randrange(width) for _ in range(rng.randrange(width + 1))]
    mask = rng.getrandbits(width + 8)  # bits past the width are ignored
    expected = sum(((mask >> bit) & 1) << j for j, bit in enumerate(bits))
    assert bit_gather(bits)(mask) == expected


@settings(max_examples=100, deadline=None)
@given(width=st.integers(0, 3000), density=st.sampled_from((0.0, 0.01, 0.3, 1.0)),
       seed=st.integers(0, 10_000), container=st.sampled_from(
           (list, tuple, set, frozenset, dict.fromkeys)))
def test_positions_mask_matches_per_position_or(width, density, seed,
                                                container):
    """Empty, sparse and dense position sets of up to 3,000 positions,
    in any order and any container type, and the round trip through
    ``iter_fault_positions``."""
    rng = random.Random(seed)
    positions = [p for p in range(width) if rng.random() < density]
    rng.shuffle(positions)
    mask = positions_mask(container(positions))
    assert mask == reference_mask_of(positions)
    assert list(iter_fault_positions(mask)) == sorted(positions)
    assert positions_mask(list(iter_fault_positions(mask))) == mask


# -- collapse -----------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(shape=shapes, scan=st.booleans(), subset_seed=st.integers(0, 10_000))
def test_collapse_matches_fault_keyed_union_find(shape, scan, subset_seed):
    circuit = _circuit(shape, scan)
    got = equivalence_classes(circuit)
    expected = reference_equivalence_classes(circuit)
    assert list(got.items()) == list(expected.items())
    assert collapse_faults(circuit) == reference_collapse_faults(circuit)
    # A partial universe (with repeats): gate rules still reach the
    # lines outside it, which can then represent a class.
    rng = random.Random(subset_seed)
    universe = enumerate_faults(circuit)
    subset = rng.sample(universe, rng.randrange(1, len(universe) + 1))
    subset += subset[:3]
    assert list(equivalence_classes(circuit, subset).items()) == \
        list(reference_equivalence_classes(circuit, subset).items())
    assert collapse_faults(circuit, subset) == \
        reference_collapse_faults(circuit, subset)


# -- sequential ATPG first detections -----------------------------------------


@settings(max_examples=30, deadline=None)
@given(shape=shapes, seed=st.integers(0, 1000), use_ledger=st.booleans(),
       repack_factor=st.sampled_from([0.0, 1.0]))
def test_atpg_detection_times_match_every_cycle_decoding(
        shape, seed, use_ledger, repack_factor):
    circuit = _circuit(shape, scan=True)
    faults = collapse_faults(circuit)
    config = SeqATPGConfig(seed=seed, initial_random_vectors=6,
                           candidates_per_step=3, max_subseq_len=6,
                           restarts=1)
    previous = seq_atpg.REPACK_FACTOR
    seq_atpg.REPACK_FACTOR = repack_factor  # 0.0 repacks after every target
    try:
        runs = []
        for engine in (SequentialATPG, reference_decode_atpg()):
            with obs.session(ledger=use_ledger) as telemetry:
                result = engine(circuit, faults, config=config).generate()
                counters = telemetry.metrics.snapshot()["counters"]
            events = [(e.kind, e.fault, e.data)
                      for e in telemetry.ledger.events] if use_ledger else []
            runs.append((list(result.detection_time.items()),
                         result.aborted, result.sequence.vectors,
                         counters.get("faultsim.faults_dropped"), events))
    finally:
        seq_atpg.REPACK_FACTOR = previous
    assert runs[0] == runs[1]


@settings(max_examples=25, deadline=None)
@given(gates=st.integers(8, 60), circuit_seed=st.integers(0, 10_000),
       seed=st.integers(0, 1000), cap=st.sampled_from((0, 4)))
def test_atpg_repack_keeps_every_result_bit(gates, circuit_seed, seed, cap):
    """Repacking after every target (``REPACK_FACTOR = 0``) gives what
    never repacking gives: the target machine the engine finds through
    its packing must be the target's own after every narrowing."""
    circuit = insert_scan(random_circuit("repack", 3, 3, gates,
                                         seed=circuit_seed)).circuit
    faults = collapse_faults(circuit)
    config = SeqATPGConfig(seed=seed, initial_random_vectors=8,
                           max_subseq_len=8, restarts=1,
                           max_targeted_faults=cap)
    previous = seq_atpg.REPACK_FACTOR
    runs = []
    try:
        for factor in (0.0, 1e9):
            seq_atpg.REPACK_FACTOR = factor
            result = SequentialATPG(circuit, faults, config=config).generate()
            runs.append((result.sequence.vectors,
                         list(result.detection_time.items()),
                         result.aborted, result.untargeted))
    finally:
        seq_atpg.REPACK_FACTOR = previous
    assert runs[0] == runs[1]


# -- session packings ---------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(shape=shapes, seed=st.integers(0, 10_000))
def test_session_mask_conversions_match_per_bit_loops(shape, seed):
    circuit = _circuit(shape, scan=True)
    faults = collapse_faults(circuit)
    rng = random.Random(seed)
    session = SimSession(circuit, faults, sim_backend="packed")
    vectors = random_vectors(circuit, 12, seed)
    n = len(faults)

    def check():
        positions = session._live_positions
        for _ in range(4):
            external = sum(1 << (p + 1) for p in positions
                           if rng.random() < 0.5)
            assert session._to_internal(external) == \
                reference_to_internal(external, positions, n)
            internal = rng.getrandbits(len(positions) + 1) & ~1
            assert session._to_external(internal) == \
                reference_to_external(internal, positions)
        # First detections per live fault position, decoded off the
        # internal log.
        times = {}
        live = session.live_mask
        for cycle, mask in session._log:
            external = reference_to_external(mask, positions) & live
            for p in reference_fault_positions(external):
                times[p] = cycle
        assert list(session._times().items()) == list(times.items())

    session.detection_times(vectors)
    check()
    for _ in range(6):
        action = rng.choice(("drop", "keep", "repack", "restore"))
        live = list(iter_fault_positions(session.live_mask))
        if action == "drop" and live:
            session.drop(sum(1 << (p + 1) for p in live
                             if rng.random() < 0.4))
        elif action == "keep" and live:
            session.keep({p: rng.randrange(12) for p in live
                          if rng.random() < 0.7})
        elif action == "repack" and live:
            rng.shuffle(live)  # any machine order, as a sweep's keep packs
            session._repack(live)
        elif action == "restore":
            session.restore_dropped()
        session.detection_times(vectors[:rng.randrange(4, 13)])
        check()
