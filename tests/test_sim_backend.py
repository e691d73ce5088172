"""The pluggable fault-simulation backend API (repro.sim.backend) and
the compiled C kernel (repro.sim.kernel).

The contract under test: the ``vector`` backend is bit-identical to the
``PackedFaultSimulator`` reference on every observable surface:
per-step detection masks, ``run()`` detection maps and (cycle, position)
ordering, state tokens round-tripping through :class:`SimSession`
checkpoints, and fault drops/repacks.  The kernel's one-call session
query returns exactly what the base class's reference loop returns.
The ``SimBackend`` base contract
(state round trips, effect masks, the fault/bit rule, run against
detects_all, independent machines) is checked on the packed and vector
simulators alike.  Backend selection (``auto``/explicit) and a vector
flow run with a third-party array package blocked are covered
alongside.
"""

import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.circuit import (
    Circuit, FlipFlop, Gate, insert_scan, random_circuit, s27,
)
from repro.circuit.gates import ONE, X, ZERO
from repro.faults import collapse_faults
from repro.faults.model import enumerate_faults
from repro.sim import (
    BACKEND_AUTO,
    BACKEND_NAMES,
    BACKEND_PACKED,
    BACKEND_VECTOR,
    PackedFaultSimulator,
    SimBackend,
    SimSession,
    make_backend,
    resolve_backend_name,
)
from repro.sim.backend import (
    AUTO_MIN_FAULTS,
    resolve_concrete_backend,
    vector_available,
)
from tests.util import random_vectors

requires_vector = pytest.mark.skipif(
    not vector_available(), reason="vector backend unavailable")


def _vector_sim(circuit, faults):
    from repro.sim.kernel import VectorFaultSimulator

    return VectorFaultSimulator(circuit, faults)


CIRCUITS = {
    "s27": lambda: s27(),
    "scan_mid": lambda: insert_scan(
        random_circuit("be_mid", 5, 8, 70, seed=11)).circuit,
    "seq_wide": lambda: random_circuit("be_wide", 7, 5, 50, seed=23),
}


@pytest.fixture(params=sorted(CIRCUITS))
def circuit(request):
    return CIRCUITS[request.param]()


# -- step/run parity against the packed reference ----------------------------


@requires_vector
def test_step_masks_bit_identical(circuit):
    faults = collapse_faults(circuit)
    vectors = random_vectors(circuit, 24, seed=3)
    packed = PackedFaultSimulator(circuit, faults)
    vector = _vector_sim(circuit, faults)
    packed.reset()
    vector.reset()
    for vec in vectors:
        assert vector.step(vec) == packed.step(vec)


@requires_vector
@pytest.mark.parametrize("early_stop", [False, True])
def test_run_detection_maps_bit_identical(circuit, early_stop):
    """run(): same detection times, same (cycle, position) insertion
    order, same vector count — the acceptance-criterion equality."""
    faults = collapse_faults(circuit)
    vectors = random_vectors(circuit, 30, seed=7)
    ref = PackedFaultSimulator(circuit, faults).run(
        [list(v) for v in vectors], stop_when_all_detected=early_stop)
    got = _vector_sim(circuit, faults).run(
        [list(v) for v in vectors], stop_when_all_detected=early_stop)
    assert got.detection_time == ref.detection_time
    assert list(got.detection_time) == list(ref.detection_time)
    assert got.num_vectors == ref.num_vectors
    assert got.faults == ref.faults


@requires_vector
def test_query_surface_parity(circuit):
    """The session-facing query surface (good values, effect masks,
    detecting outputs, detects_all) agrees with packed mid-sequence."""
    faults = collapse_faults(circuit)
    vectors = random_vectors(circuit, 10, seed=5)
    packed = PackedFaultSimulator(circuit, faults)
    vector = _vector_sim(circuit, faults)
    packed.reset()
    vector.reset()
    for vec in vectors:
        mask_p = packed.step(vec)
        mask_v = vector.step(vec)
        assert mask_v == mask_p
        assert vector.detecting_outputs(mask_p) == \
            packed.detecting_outputs(mask_p)
        assert vector.faults_from_mask(mask_p) == \
            packed.faults_from_mask(mask_p)
        for net in list(circuit.outputs)[:3]:
            assert vector.good_net_value(net) == packed.good_net_value(net)
            assert vector.net_effect_mask(net) == packed.net_effect_mask(net)
    assert vector.detects_all(vectors) == packed.detects_all(vectors)


@requires_vector
def test_state_tokens_round_trip(circuit):
    """save_state/restore_state replays to identical futures, and
    machine-state export/import agrees with packed."""
    faults = collapse_faults(circuit)
    vectors = random_vectors(circuit, 16, seed=9)
    packed = PackedFaultSimulator(circuit, faults)
    vector = _vector_sim(circuit, faults)
    packed.reset()
    vector.reset()
    for vec in vectors[:8]:
        packed.step(vec)
        vector.step(vec)
    token_p, token_v = packed.save_state(), vector.save_state()
    assert vector.good_state() == packed.good_state()
    for pos in (0, len(faults) // 2):
        assert vector.machine_state(pos + 1) == packed.machine_state(pos + 1)
    tail_p = [packed.step(vec) for vec in vectors[8:]]
    tail_v = [vector.step(vec) for vec in vectors[8:]]
    assert tail_v == tail_p
    packed.restore_state(token_p)
    vector.restore_state(token_v)
    assert [packed.step(vec) for vec in vectors[8:]] == tail_p
    assert [vector.step(vec) for vec in vectors[8:]] == tail_v


# -- property test: random circuits through both backends --------------------


@requires_vector
@settings(max_examples=10, deadline=None)
@given(
    params=st.tuples(
        st.integers(min_value=2, max_value=5),     # inputs
        st.integers(min_value=1, max_value=6),     # flops
        st.integers(min_value=6, max_value=45),    # gates
        st.integers(min_value=0, max_value=10_000),  # seed
    ),
    sim_seed=st.integers(0, 1000),
)
def test_backends_agree_on_random_circuits(params, sim_seed):
    inputs, flops, gates, seed = params
    circuit = random_circuit("bh", inputs, flops, max(gates, flops),
                             seed=seed)
    faults = collapse_faults(circuit)
    if not faults:
        return
    vectors = random_vectors(circuit, 20, seed=sim_seed)
    ref = PackedFaultSimulator(circuit, faults).run([list(v) for v in vectors])
    got = _vector_sim(circuit, faults).run([list(v) for v in vectors])
    assert got.detection_time == ref.detection_time
    assert list(got.detection_time) == list(ref.detection_time)


@requires_vector
def test_wide_fanin_gates_bit_identical():
    """Gates far wider than 16 inputs run on the C kernel and match
    packed."""
    inputs = tuple(f"i{k}" for k in range(40))
    circuit = Circuit(
        "wide", inputs=inputs, outputs=("y", "z", "w"),
        gates=[Gate("a", "AND", inputs[:20]),
               Gate("o", "NOR", inputs[10:]),
               Gate("x", "XOR", inputs[5:25]),
               Gate("y", "OR", ("a", "o", "x", "s")),
               Gate("z", "NAND", inputs[:17] + ("a", "s")),
               Gate("w", "XNOR", inputs[3:37])],
        flops=[FlipFlop("s", "w")])
    assert max(len(g.inputs) for g in circuit.gates) > 16
    faults = collapse_faults(circuit)
    rng = random.Random(4)
    vectors = []
    for _ in range(60):
        # Biased vectors so the wide AND/NOR/NAND gates switch too.
        bias = rng.choice((0.05, 0.5, 0.95))
        vectors.append([int(rng.random() < bias) for _ in inputs])
    ref = PackedFaultSimulator(circuit, faults).run(vectors)
    got = make_backend(circuit, faults, BACKEND_VECTOR).run(vectors)
    assert ref.detection_time
    assert got.detection_time == ref.detection_time
    assert list(got.detection_time) == list(ref.detection_time)


# -- sparse fault injection and active-word bounds ---------------------------


def _fault_list(circuit, words, rng):
    """A fault list packing into exactly ``words`` machine words, drawn
    (with repeats once exhausted) from the uncollapsed universe, so every
    fault-site kind the circuit has appears in the wider lists."""
    universe = enumerate_faults(circuit)
    rng.shuffle(universe)
    size = rng.randint(max(1, 64 * (words - 1)), 64 * words - 1)
    return [universe[i % len(universe)] for i in range(size)]


def _site_kinds(circuit, faults):
    flops = {flop.q for flop in circuit.flops}
    kinds = set()
    for fault in faults:
        if fault.kind == "stem":
            kinds.add("pi" if fault.net in circuit.inputs else
                      "flop_q" if fault.net in flops else "gate_out")
        elif fault.consumer.startswith("PO:"):
            kinds.add("po")
        else:
            kinds.add("flop_d" if fault.consumer in flops else "gate_pin")
    return kinds


def _vectors_with_x(circuit, count, rng):
    return [tuple(rng.choice((0, 1, 1, 0, X)) for _ in circuit.inputs)
            for _ in range(count)]


def _assert_bounded_parity(circuit, faults, vectors):
    """Every active-word bound: machines inside it match the packed
    reference bit for bit, machines outside are never reported."""
    from repro.sim.kernel import VectorFaultSimulator

    packed = PackedFaultSimulator(circuit, faults)
    packed.reset()
    reference = [packed.step(v) for v in vectors]
    final_states = [packed.machine_state(m)
                    for m in range(packed.num_machines)]
    vector = VectorFaultSimulator(circuit, faults)
    for words in range(1, vector.W + 1):
        inside = (1 << (64 * words)) - 1
        vector.active_words = words
        vector.reset()
        for vec, expected in zip(vectors, reference):
            got = vector.step(vec)
            assert got & ~inside == 0
            assert got == expected & inside
        for machine in range(min(64 * words, vector.num_machines)):
            assert vector.machine_state(machine) == final_states[machine]


@requires_vector
@settings(max_examples=12, deadline=None)
@given(
    params=st.tuples(
        st.integers(min_value=2, max_value=5),     # inputs
        st.integers(min_value=1, max_value=5),     # flops
        st.integers(min_value=8, max_value=40),    # gates
        st.integers(min_value=0, max_value=10_000),  # seed
    ),
    words=st.integers(min_value=1, max_value=4),
    sim_seed=st.integers(0, 1000),
)
def test_sparse_injection_bounded_steps_match_packed(params, words,
                                                     sim_seed):
    inputs, flops, gates, seed = params
    circuit = random_circuit("sw", inputs, flops, max(gates, flops),
                             seed=seed)
    rng = random.Random(sim_seed)
    faults = _fault_list(circuit, words, rng)
    assert (len(faults) + 64) // 64 == words
    _assert_bounded_parity(circuit, faults,
                           _vectors_with_x(circuit, 16, rng))


def test_random_fault_lists_cover_every_site_kind():
    """The lists the property test draws reach every site kind."""
    circuit = random_circuit("sw", 4, 3, 30, seed=5)
    faults = _fault_list(circuit, 3, random.Random(0))
    assert _site_kinds(circuit, faults) == {
        "pi", "gate_out", "gate_pin", "flop_q", "flop_d", "po"}


def _shared_source_circuit():
    """``n1 = AND(a, a)``: one source on two pins of one gate."""
    return Circuit(
        "shared", inputs=("a", "b"), outputs=("n4", "n3"),
        gates=[Gate("n1", "AND", ("a", "a")),
               Gate("n2", "NOR", ("a", "q1")),
               Gate("n3", "XOR", ("n1", "n2", "b")),
               Gate("n4", "OR", ("n3", "q2"))],
        flops=[FlipFlop("q1", "n3"), FlipFlop("q2", "n1")])


@requires_vector
@pytest.mark.parametrize("pin", [0, 1])
def test_branch_fault_on_shared_source_pin(pin):
    """A branch fault on one of two pins fed by the same net forces only
    that pin (the kernel forces a copy there, not the source row)."""
    circuit = _shared_source_circuit()
    universe = enumerate_faults(circuit)
    assert _site_kinds(circuit, universe) == {
        "pi", "gate_out", "gate_pin", "flop_q", "flop_d", "po"}
    target = [f for f in universe
              if f.kind == "branch" and f.consumer == "n1" and f.pin == pin]
    assert len(target) == 2
    rng = random.Random(pin)
    vectors = _vectors_with_x(circuit, 24, rng)
    # Alone, packed among the whole universe, and repeated across words.
    for faults in (target, universe, (universe * 5)[:200]):
        _assert_bounded_parity(circuit, faults, vectors)
    # The fault is observable: the other pin still reads the good value.
    ref = PackedFaultSimulator(circuit, target).run(
        [(1, 0), (1, 1), (1, 0), (1, 1)])
    assert ref.detection_time


# -- the query primitive: the C loop against the reference loop --------------


def _query_outcome(query):
    """Every field of a Query (both sides hold vector state tokens)."""
    return (query.end, query.seen, query.word_cycles, query.log,
            query.checkpoints)


@requires_vector
@settings(max_examples=40, deadline=None)
@given(
    params=st.tuples(
        st.integers(min_value=2, max_value=5),     # inputs
        st.integers(min_value=1, max_value=5),     # flops
        st.integers(min_value=8, max_value=40),    # gates
        st.integers(min_value=0, max_value=10_000),  # seed
    ),
    words=st.integers(min_value=1, max_value=3),
    length=st.integers(min_value=0, max_value=30),
    data=st.data(),
)
def test_query_override_matches_reference_loop(params, words, length, data):
    """VectorFaultSimulator.query (one C call) returns what the
    SimBackend.query loop returns on an identical simulator: end cycle,
    seen mask, word cycles, the detection log and every checkpoint,
    state tokens included, for any start cycle, seen/wanted masks,
    stop rule, narrowing, grid and initial state, also when its
    buffers hold a single entry and it returns to drain them."""
    from unittest import mock

    from repro.sim import kernel

    inputs, flops, gates, seed = params
    circuit = random_circuit("qp", inputs, flops, max(gates, flops),
                             seed=seed)
    rng = random.Random(data.draw(st.integers(0, 1000), label="rng"))
    faults = _fault_list(circuit, words, rng)
    vectors = _vectors_with_x(circuit, length, rng)
    start = data.draw(st.integers(0, length), label="start")
    initial_state = data.draw(st.one_of(st.none(), st.lists(
        st.sampled_from((ZERO, ONE, X)), min_size=len(circuit.flops),
        max_size=len(circuit.flops))), label="initial_state")
    fault_mask = (1 << (len(faults) + 1)) - 2

    def simulator():
        """A vector simulator stepped through ``vectors[:start]``."""
        sim = kernel.VectorFaultSimulator(circuit, faults)
        if initial_state is not None:
            sim.load_state(initial_state)
        for vec in vectors[:start]:
            sim.step(vec)
        return sim

    def sparse():
        bits = len(faults) + 1
        return rng.getrandbits(bits) & rng.getrandbits(bits) & fault_mask

    def few():
        # A handful of the machines the suffix detects, so narrowing
        # sheds words as they fall.
        detected = SimBackend.query(simulator(), vectors[start:], start,
                                    0, fault_mask).seen
        bits = [b for b in range(detected.bit_length()) if detected >> b & 1]
        return sum(1 << b for b in rng.sample(bits, min(len(bits), 4)))

    seen = sparse() if data.draw(st.booleans(), label="seen") else 0
    targets = {"all": lambda: fault_mask, "sparse": sparse, "few": few,
               "none": lambda: 0}
    wanted = targets[data.draw(st.sampled_from(sorted(targets)),
                               label="wanted")]()
    stop_early = data.draw(st.booleans(), label="stop_early")
    narrow = data.draw(st.booleans(), label="narrow")
    grid = data.draw(st.one_of(st.none(), st.tuples(
        st.integers(1, 8), st.integers(0, length + 1))), label="grid")
    tiny = data.draw(st.booleans(), label="tiny_buffers")

    outcomes = []
    for query in (SimBackend.query, kernel.VectorFaultSimulator.query):
        sim = simulator()
        with mock.patch.object(kernel, "_QUERY_BUFFER_BYTES",
                               8 if tiny else kernel._QUERY_BUFFER_BYTES):
            result = query(sim, vectors[start:], start, seen, wanted,
                           stop_early, narrow, grid)
        outcomes.append((_query_outcome(result), sim.time,
                         sim.active_words, sim._state_pairs()))
    assert outcomes[1] == outcomes[0]


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_remap_state_token_any_permutation(backend):
    """remap_state_token takes kept bits in any order: the remapped
    token resumes a simulator packed in that order bit-identically."""
    if backend == BACKEND_VECTOR and not vector_available():
        pytest.skip("vector backend unavailable")
    circuit = CIRCUITS["seq_wide"]()
    faults = collapse_faults(circuit)
    assert len(faults) > 64  # the permutation crosses machine words
    vectors = random_vectors(circuit, 20, seed=2)
    sim = make_backend(circuit, faults, backend)
    sim.reset()
    for vec in vectors[:10]:
        sim.step(vec)
    token = sim.save_state()
    rng = random.Random(7)
    kept = rng.sample(range(1, len(faults) + 1), len(faults) * 2 // 3)
    assert kept != sorted(kept)
    narrow = make_backend(circuit, [faults[b - 1] for b in kept], backend)
    narrow.restore_state(type(sim).remap_state_token(token, [0] + kept))
    for vec in vectors[10:]:
        wide_mask = sim.step(vec)
        expected = 0
        for new_bit, old_bit in enumerate(kept, start=1):
            expected |= (wide_mask >> old_bit & 1) << new_bit
        assert narrow.step(vec) == expected


# -- SimSession: checkpoints, drops, repacks ---------------------------------


@requires_vector
def test_session_checkpoint_drop_repack_parity(circuit):
    """A mixed session workload (prefix re-queries, edits, drops that
    trigger repacks) answers bit-identically on both backends."""
    faults = collapse_faults(circuit)
    rng = random.Random(42)
    vectors = random_vectors(circuit, 24, seed=13)
    edited = [list(v) for v in vectors]
    edited[10] = [1 - v for v in edited[10]]

    def drive(name):
        session = SimSession(circuit, faults, sim_backend=name)
        answers = [session.detection_times(vectors)]
        answers.append(session.detection_times(vectors[:12]))
        detected = session.detected_mask(vectors)
        # Drop roughly half the detected faults to force a repack.
        half = 0
        for fault in session.faults_of(detected)[::2]:
            half |= session.mask_of([fault])
        session.drop(half)
        answers.append(session.detection_times(edited))
        session.restore_dropped()
        answers.append(session.detection_times(vectors))
        stats = session.close()
        return answers, stats["faults_dropped"]

    packed_answers, packed_dropped = drive(BACKEND_PACKED)
    vector_answers, vector_dropped = drive(BACKEND_VECTOR)
    assert vector_answers == packed_answers
    assert vector_dropped == packed_dropped


def test_session_pins_concrete_backend():
    """auto resolves once at construction; repacks reuse the pinned
    class so state-token formats never switch mid-session."""
    circuit = CIRCUITS["scan_mid"]()
    faults = collapse_faults(circuit)
    session = SimSession(circuit, faults, sim_backend=BACKEND_AUTO)
    assert session.sim_backend in BACKEND_NAMES
    expected = resolve_concrete_backend(BACKEND_AUTO, len(faults))
    assert session.sim_backend == expected
    assert type(session._sim).backend_name == expected


# -- selection: auto / explicit ----------------------------------------------


def test_resolve_backend_name_precedence():
    assert resolve_backend_name(None) == BACKEND_AUTO
    assert resolve_backend_name(BACKEND_AUTO) == BACKEND_AUTO
    assert resolve_backend_name(BACKEND_PACKED) == BACKEND_PACKED
    assert resolve_backend_name(BACKEND_VECTOR) == BACKEND_VECTOR


def test_resolve_backend_name_rejects_unknown():
    with pytest.raises(ValueError, match="unknown sim backend"):
        resolve_backend_name("gpu")


def test_auto_keeps_small_fault_lists_packed():
    assert resolve_concrete_backend(
        BACKEND_AUTO, AUTO_MIN_FAULTS - 1) == BACKEND_PACKED


@pytest.mark.skipif(not vector_available(),
                    reason="vector backend unavailable")
def test_auto_picks_vector_for_large_fault_lists():
    assert resolve_concrete_backend(
        BACKEND_AUTO, AUTO_MIN_FAULTS) == BACKEND_VECTOR


@pytest.mark.skipif(not vector_available(),
                    reason="vector backend unavailable")
def test_auto_picks_vector_for_big_circuits():
    """Single-fault minis on a big circuit go vector: the packed Python
    step costs milliseconds at 10k gates while the kernel program is
    fingerprint-cached on the circuit."""
    from repro.sim.backend import AUTO_MIN_GATES

    assert resolve_concrete_backend(
        BACKEND_AUTO, 1, AUTO_MIN_GATES) == BACKEND_VECTOR
    assert resolve_concrete_backend(
        BACKEND_AUTO, 1, AUTO_MIN_GATES - 1) == BACKEND_PACKED


def test_vector_without_c_compiler(monkeypatch):
    """No C library: explicit vector raises, auto resolves to packed."""
    from repro.sim import kernel

    monkeypatch.setattr(kernel, "load_kernel_library", lambda: None)
    circuit = CIRCUITS["scan_mid"]()
    faults = collapse_faults(circuit)
    with pytest.raises(RuntimeError, match="C compiler"):
        make_backend(circuit, faults, BACKEND_VECTOR)
    assert resolve_concrete_backend(BACKEND_AUTO, 10_000) == BACKEND_PACKED
    assert type(make_backend(circuit, faults, BACKEND_AUTO)).backend_name \
        == BACKEND_PACKED


def test_make_backend_protocol_conformance():
    circuit = s27()
    faults = collapse_faults(circuit)
    sim = make_backend(circuit, faults, BACKEND_PACKED)
    assert isinstance(sim, SimBackend)
    assert type(sim).backend_name == BACKEND_PACKED
    if vector_available():
        vec = make_backend(CIRCUITS["scan_mid"](),
                           collapse_faults(CIRCUITS["scan_mid"]()),
                           BACKEND_VECTOR)
        assert isinstance(vec, SimBackend)
        assert type(vec).backend_name == BACKEND_VECTOR


# -- the shared contract, on every simulator ---------------------------------


#: name -> simulator factory
CONTRACT_SIMS = {"packed": PackedFaultSimulator, "vector": _vector_sim}


@pytest.fixture(params=sorted(CONTRACT_SIMS))
def contract_sim(request):
    """``(factory, circuit, faults)`` for one simulator on scan s27."""
    if request.param == "vector" and not vector_available():
        pytest.skip("vector backend unavailable")
    circuit = insert_scan(s27()).circuit
    return CONTRACT_SIMS[request.param], circuit, collapse_faults(circuit)


def test_contract_machine_states_round_trip(contract_sim):
    """load_machine_states/machine_state round-trip every machine, and
    ff_effect_masks marks the machines holding the opposite binary
    value of the fault-free one."""
    factory, circuit, faults = contract_sim
    sim = factory(circuit, faults)
    rng = random.Random(3)
    states = [tuple(rng.choice((ZERO, ONE, X)) for _ in circuit.flops)
              for _ in range(sim.num_machines)]
    states[0] = tuple(rng.choice((ZERO, ONE)) for _ in circuit.flops)
    sim.load_machine_states(states)
    assert [sim.machine_state(m) for m in range(sim.num_machines)] == states
    assert sim.good_state() == states[0]
    expected = [0] * len(circuit.flops)
    for machine, state in enumerate(states[1:], start=1):
        for flop, (good, value) in enumerate(zip(states[0], state)):
            if value != X and value != good:
                expected[flop] |= 1 << machine
    assert sim.ff_effect_masks() == expected
    with pytest.raises(ValueError):
        sim.load_machine_states(states[1:])


def test_contract_machines_are_independent(contract_sim):
    """Every read-out of machine ``i + 1`` in the full packing equals
    machine 1 of a simulator packing ``faults[i]`` alone: detection,
    state, flip-flop effects, net effects and the good outputs."""
    factory, circuit, faults = contract_sim
    vectors = random_vectors(circuit, 8, seed=4)
    nets = list(circuit.outputs) + [f.q for f in circuit.flops]
    full = factory(circuit, faults)
    singles = [factory(circuit, [fault]) for fault in faults]
    for sim in [full] + singles:
        sim.reset()
    for vec in vectors:
        detected = full.step(vec)
        good = full.good_outputs()
        assert good == tuple(full.good_net_value(n) for n in circuit.outputs)
        for i, single in enumerate(singles):
            bit = i + 1
            assert single.step(vec) == (detected >> bit & 1) << 1
            assert single.good_outputs() == good
            assert single.machine_state(1) == full.machine_state(bit)
            assert [m >> 1 for m in single.ff_effect_masks()] == \
                [m >> bit & 1 for m in full.ff_effect_masks()]
            for net in nets:
                assert single.net_effect_mask(net) >> 1 == \
                    full.net_effect_mask(net) >> bit & 1


def test_contract_fault_bit_rule(contract_sim):
    """Bit ``i + 1`` is ``faults[i]``, both ways."""
    factory, circuit, faults = contract_sim
    sim = factory(circuit, faults)
    assert sim.num_machines == len(faults) + 1
    assert sim.full_mask == (1 << sim.num_machines) - 1
    assert sim.fault_mask == sim.full_mask & ~1
    assert [sim.machine_of(f) for f in faults] == \
        list(range(1, len(faults) + 1))
    subset = faults[::3]
    mask = sim.mask_of(subset)
    assert mask == sum(1 << (faults.index(f) + 1) for f in subset)
    assert sim.faults_from_mask(mask | 1) == subset
    assert sim.faults_from_mask(sim.fault_mask) == faults


def test_contract_run_agrees_with_detects_all(contract_sim):
    """run() records each fault at the first step detecting it, stops
    early only once all are detected, and detects_all() agrees."""
    factory, circuit, faults = contract_sim
    vectors = random_vectors(circuit, 24, seed=6)
    sim = factory(circuit, faults)
    sim.reset()
    first = {}
    for t, vec in enumerate(vectors):
        for fault in sim.faults_from_mask(sim.step(vec)):
            first.setdefault(fault, t)
    result = sim.run(vectors)
    assert result.detection_time == first
    assert result.num_vectors == len(vectors)
    assert sim.detects_all(vectors) == (len(first) == len(faults))
    detected = [f for f in faults if f in first]
    assert detected
    narrow = factory(circuit, detected)
    assert narrow.detects_all(vectors)
    early = narrow.run(vectors, stop_when_all_detected=True)
    assert early.detection_time == {f: first[f] for f in detected}
    assert early.num_vectors == max(first.values()) + 1


# -- telemetry: the faultsim.backend signal ----------------------------------


def test_make_backend_emits_metrics_and_event():
    circuit = s27()
    faults = collapse_faults(circuit)
    with obs.session() as telemetry:
        make_backend(circuit, faults, BACKEND_PACKED)
        snapshot = telemetry.metrics.snapshot()
    assert snapshot["counters"]["faultsim.backend.packed"] == 1
    assert "faultsim.backend.compile_seconds" in snapshot["gauges"]
    assert "faultsim.backend.plane_bytes" in snapshot["gauges"]


# -- the vector kernel runs on the standard library -------------------------


@requires_vector
def test_vector_flow_without_numpy():
    """With ``import numpy`` made to fail, the vector backend still
    builds and serves a whole s27 generation flow."""
    code = (
        "import sys\n"
        "class NoNumpy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.partition('.')[0] == 'numpy':\n"
        "            raise ImportError('numpy is blocked')\n"
        "sys.meta_path.insert(0, NoNumpy())\n"
        "from repro import FlowConfig, generation_flow, make_backend, obs\n"
        "from repro import s27\n"
        "from repro.faults import collapse_faults\n"
        "c = s27()\n"
        "sim = make_backend(c, collapse_faults(c), 'vector')\n"
        "assert type(sim).backend_name == 'vector'\n"
        "with obs.session() as telemetry:\n"
        "    flow = generation_flow(c, FlowConfig(seed=1))\n"
        "    counters = telemetry.metrics.snapshot()['counters']\n"
        "assert counters.get('faultsim.backend.vector', 0) > 0, counters\n"
        "assert flow.fault_coverage > 0\n"
        "try:\n"
        "    import numpy\n"
        "except ImportError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('the blocker let numpy in')\n"
        "assert 'numpy' not in sys.modules\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": "src"},
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    assert proc.returncode == 0, proc.stderr
