"""The pluggable fault-simulation backend API (repro.sim.backend) and
the compiled C kernel (repro.sim.kernel).

The contract under test: the ``vector`` backend is bit-identical to the
``PackedFaultSimulator`` reference on every observable surface:
per-step detection masks, ``run()`` detection maps and (cycle, position)
ordering, state tokens round-tripping through :class:`SimSession`
checkpoints, and fault drops/repacks.  Backend selection
(``auto``/explicit), custom simulator factories, and the
no-numpy-when-packed guarantee are covered alongside.
"""

import os
import random
import subprocess
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.circuit import (
    Circuit, FlipFlop, Gate, insert_scan, random_circuit, s27,
)
from repro.faults import collapse_faults
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
from repro.sim import backend as backend_mod
from repro.sim.backend import (
    AUTO_MIN_FAULTS,
    numpy_available,
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


def test_auto_degrades_without_numpy(monkeypatch):
    monkeypatch.setattr(backend_mod, "numpy_available", lambda: False)
    assert resolve_concrete_backend(BACKEND_AUTO, 10_000) == BACKEND_PACKED


def test_explicit_vector_without_numpy_raises(monkeypatch):
    monkeypatch.setattr(backend_mod, "numpy_available", lambda: False)
    circuit = s27()
    faults = collapse_faults(circuit)
    with pytest.raises(RuntimeError, match="requires numpy"):
        make_backend(circuit, faults, BACKEND_VECTOR)


@pytest.mark.skipif(not numpy_available(), reason="numpy not importable")
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


# -- custom simulator factories ----------------------------------------------


def test_custom_factory_passes_through_unwarned():
    calls = []

    def factory(circuit, faults):
        calls.append(len(faults))
        return PackedFaultSimulator(circuit, faults)

    circuit = s27()
    faults = collapse_faults(circuit)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        session = SimSession(circuit, faults, simulator_factory=factory)
    assert calls == [len(faults)]
    assert session.sim_backend is None  # custom factories are unnamed
    session.close()


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


# -- import hygiene: packed never pays for numpy -----------------------------


def test_packed_backend_never_imports_numpy():
    """Building the packed backend (and importing repro at all) must not
    drag numpy in — the no-numpy tier-1 job depends on it."""
    code = (
        "import sys\n"
        "from repro import make_backend, s27\n"
        "from repro.faults import collapse_faults\n"
        "c = s27()\n"
        "sim = make_backend(c, collapse_faults(c), 'packed')\n"
        "sim.run([tuple(0 for _ in c.inputs)] * 4)\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": "src"},
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    assert proc.returncode == 0, proc.stderr
