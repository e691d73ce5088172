"""The incremental fault-simulation session (repro.sim.session).

The contract under test: whatever sequence of queries a client issues,
with whatever mix of checkpoint resumes, fault drops and repacks the
session performs internally, every answer is bit-identical to a fresh
:class:`PackedFaultSimulator` run from cycle 0 — while simulating fewer
cycles.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FlowConfig, PackedFaultSimulator, SimSession, obs, s27
from repro.circuit import insert_scan, random_circuit
from repro.compaction.base import CompactionOracle
from repro.compaction.omission import omission_compact
from repro.compaction.restoration import restoration_compact
from repro.core.pipeline import generation_flow
from repro.faults.collapse import collapse_faults
from repro.sim import iter_fault_positions, positions_mask
from repro.sim.backend import vector_available
from repro.testseq.sequences import TestSequence

requires_vector = pytest.mark.skipif(
    not vector_available(), reason="vector backend unavailable")


def random_vectors(circuit, count, rng):
    return [
        tuple(rng.randint(0, 1) for _ in circuit.inputs)
        for _ in range(count)
    ]


def reference_times(circuit, faults, vectors):
    """Ground truth: fresh packed simulator, full run from reset, keyed
    by fault position."""
    sim = PackedFaultSimulator(circuit, faults)
    position = {fault: p for p, fault in enumerate(faults)}
    return {position[fault]: t
            for fault, t in sim.run(list(vectors)).detection_time.items()}


def _edit_schedule(vectors, rng):
    """A mixed workload of full runs, prefixes, suffix edits and
    re-queries — the access pattern compaction procedures produce."""
    n = len(vectors)
    schedule = [list(vectors)]
    schedule.append(list(vectors[: n // 2]))          # prefix re-query
    schedule.append(list(vectors))                    # back to full
    edited = list(vectors)
    edited[n // 3] = tuple(1 - v for v in edited[n // 3])
    schedule.append(edited)                           # mid-sequence edit
    schedule.append(edited[: n - 2])                  # prefix of the edit
    omitted = edited[: n // 2] + edited[n // 2 + 1:]  # vector omission
    schedule.append(omitted)
    schedule.append(list(rng.choice([vectors, edited, omitted])))
    return schedule


CIRCUITS = {
    "s27": lambda: s27(),
    "synthetic": lambda: random_circuit(
        "sess_synth", num_inputs=4, num_flops=6, num_gates=40, seed=77
    ),
}


@pytest.fixture(params=sorted(CIRCUITS))
def circuit(request):
    return CIRCUITS[request.param]()


class TestResumeEqualsRestart:
    def test_detection_times_bit_identical(self, circuit):
        """Every detection_times answer across a mixed edit workload
        matches a fresh cycle-0 simulation exactly."""
        faults = collapse_faults(circuit)
        rng = random.Random(5)
        vectors = random_vectors(circuit, 40, rng)
        session = SimSession(circuit, faults)
        for query in _edit_schedule(vectors, rng):
            assert session.detection_times(query) == \
                reference_times(circuit, faults, query)

    def test_detected_mask_bit_identical(self, circuit):
        faults = collapse_faults(circuit)
        rng = random.Random(6)
        vectors = random_vectors(circuit, 30, rng)
        session = SimSession(circuit, faults)
        for query in _edit_schedule(vectors, rng):
            expected = positions_mask(
                reference_times(circuit, faults, query)
            )
            assert session.detected_mask(query) == expected

    def test_incremental_simulates_fewer_cycles(self, circuit):
        """The same workload costs strictly fewer simulated cycles with
        checkpointing than with cycle-0 restarts."""
        faults = collapse_faults(circuit)
        rng = random.Random(7)
        vectors = random_vectors(circuit, 40, rng)
        schedule = _edit_schedule(vectors, rng)

        def cycles(incremental):
            session = SimSession(circuit, faults, incremental=incremental)
            for query in schedule:
                session.detection_times(query)
            return session.cycles_simulated

        assert cycles(True) < cycles(False)

    def test_counters_track_resumes(self, circuit):
        faults = collapse_faults(circuit)
        session = SimSession(circuit, faults)
        vectors = random_vectors(circuit, 20, random.Random(8))
        session.detection_times(vectors)
        assert session.checkpoint_misses == 1  # cold start
        session.detection_times(vectors[:15])  # prefix: resume
        assert session.checkpoint_hits >= 1
        assert session.cycles_simulated < 35


class TestFaultDropping:
    def test_dropping_never_changes_coverage(self, circuit):
        """Property: randomly dropping detected faults between queries
        never changes the reported detections for the still-live part,
        and restore_dropped recovers full-universe answers."""
        faults = collapse_faults(circuit)
        rng = random.Random(9)
        vectors = random_vectors(circuit, 30, rng)
        truth = reference_times(circuit, faults, vectors)

        session = SimSession(circuit, faults)
        truth_mask = positions_mask(truth)
        for _round in range(6):
            detected = session.detected_mask(vectors)
            assert detected == truth_mask & session.live_mask
            # Drop a random subset of what is detected (possibly enough
            # to trigger a geometric repack).
            candidates = list(iter_fault_positions(detected))
            if candidates:
                sample = rng.sample(
                    candidates, rng.randint(1, len(candidates))
                )
                session.drop(positions_mask(sample))
        session.restore_dropped()
        assert session.detected_mask(vectors) == truth_mask
        assert session.detection_times(vectors) == truth

    def test_drop_rejects_queries_for_dropped_targets(self, circuit):
        faults = collapse_faults(circuit)
        session = SimSession(circuit, faults)
        vectors = random_vectors(circuit, 15, random.Random(10))
        detected = session.detected_mask(vectors)
        if not detected:
            pytest.skip("nothing detected on this circuit/seed")
        session.drop(detected)
        with pytest.raises(ValueError):
            session.detected_mask(vectors, target_mask=detected)

    def test_dropped_counter(self, circuit):
        faults = collapse_faults(circuit)
        session = SimSession(circuit, faults)
        vectors = random_vectors(circuit, 15, random.Random(11))
        detected = session.detected_mask(vectors)
        dropped = session.drop(detected)
        assert dropped == detected
        assert session.faults_dropped == bin(detected).count("1")


class TestOmissionPerfGuard:
    """The ISSUE acceptance bar: on the s27 generation flow, incremental
    omission performs >= 2x fewer simulated cycles than the cycle-0
    restart baseline, with identical results."""

    @pytest.fixture(scope="class")
    def s27_flow(self):
        return generation_flow(s27(), FlowConfig(seed=1, compact=False))

    def _compact(self, flow, incremental):
        circuit = flow.scan_circuit.circuit
        oracle = CompactionOracle(circuit, flow.faults,
                                  incremental=incremental)
        restored = restoration_compact(
            circuit, flow.raw, flow.faults, oracle=oracle)
        before = oracle.cycles_simulated
        omitted = omission_compact(
            circuit, restored.sequence, flow.faults, oracle=oracle)
        return omitted, oracle.cycles_simulated - before

    def test_incremental_at_least_2x_fewer_cycles(self, s27_flow):
        result_inc, cycles_inc = self._compact(s27_flow, incremental=True)
        result_base, cycles_base = self._compact(s27_flow, incremental=False)
        assert cycles_inc * 2 <= cycles_base
        # Identical final sequence, coverage and detection accounting.
        assert list(result_inc.sequence.vectors) == \
            list(result_base.sequence.vectors)
        assert result_inc.omitted_count == result_base.omitted_count
        assert result_inc.detected == result_base.detected
        assert result_inc.extra_detected == result_base.extra_detected

    def test_identical_detection_times(self, s27_flow):
        """The compacted sequence yields the same detection times under
        both modes (and under a fresh simulator)."""
        result_inc, _ = self._compact(s27_flow, incremental=True)
        circuit = s27_flow.scan_circuit.circuit
        times = reference_times(
            circuit, s27_flow.faults, result_inc.sequence.vectors)
        session = SimSession(circuit, s27_flow.faults)
        assert session.detection_times(
            list(result_inc.sequence.vectors)) == times


class TestOmissionWordGuard:
    """On s953's preset generation flow, omission on the narrowing
    vector session steps at most half the machine words of a full-width
    sweep (a packed session, which never narrows), with identical
    results."""

    @pytest.fixture(scope="class")
    def s953_flow(self):
        from repro.circuit.corpus import flow_overrides
        from repro.experiments.suite import build_circuit

        config = FlowConfig(seed=0, compact=False,
                            **flow_overrides("s953", seed_offset=0))
        return generation_flow(build_circuit("s953"), config)

    @staticmethod
    def _compact(flow, backend):
        circuit = flow.scan_circuit.circuit
        oracle = CompactionOracle(circuit, flow.faults, sim_backend=backend)
        restored = restoration_compact(
            circuit, flow.raw, flow.faults, oracle=oracle)
        before = oracle.word_cycles
        omitted = omission_compact(
            circuit, restored.sequence, flow.faults, oracle=oracle)
        return oracle, omitted, oracle.word_cycles - before

    @requires_vector
    def test_omission_steps_at_most_half_the_words(self, s953_flow):
        oracle, narrow, narrow_words = self._compact(s953_flow, None)
        assert oracle.sim_backend == "vector"
        _full_oracle, full, full_words = self._compact(s953_flow, "packed")
        assert narrow_words * 2 <= full_words
        assert list(narrow.sequence.vectors) == list(full.sequence.vectors)
        assert narrow.omitted_count == full.omitted_count
        assert narrow.detected == full.detected
        assert narrow.extra_detected == full.extra_detected


@requires_vector
@settings(max_examples=8, deadline=None)
@given(
    params=st.tuples(
        st.integers(min_value=2, max_value=5),     # inputs
        st.integers(min_value=1, max_value=6),     # flops
        st.integers(min_value=30, max_value=70),   # gates
        st.integers(min_value=0, max_value=10_000),  # seed
    ),
    length=st.integers(min_value=10, max_value=50),
    seq_seed=st.integers(0, 1000),
)
def test_narrowed_compaction_matches_packed(params, length, seq_seed):
    """Restoration then omission on a vector-backed (narrowed) oracle
    answer exactly as on the packed reference: sequences, attempt
    counts, the keep/omit decision stream and the detected sets."""
    inputs, flops, gates, seed = params
    circuit = random_circuit("nc", inputs, flops, gates, seed=seed)
    faults = collapse_faults(circuit)
    sequence = TestSequence(
        circuit.inputs, random_vectors(circuit, length,
                                       random.Random(seq_seed)))

    def compact(backend):
        with obs.session(ledger=True) as telemetry:
            oracle = CompactionOracle(circuit, faults, sim_backend=backend)
            restored = restoration_compact(circuit, sequence, faults,
                                           oracle=oracle)
            omitted = omission_compact(circuit, restored.sequence, faults,
                                       oracle=oracle, max_passes=2)
            counters = telemetry.metrics.snapshot()["counters"]
        decisions = [
            (e.data["origin"], e.data["omitted"], e.data["pass_no"],
             e.data["faults"])
            for e in telemetry.ledger.events if e.kind == "omission.decision"
        ]
        attempts = {k: v for k, v in counters.items()
                    if k.startswith("compaction.") and k.endswith("attempts")}
        return oracle, (
            restored.sequence.vectors, restored.detected,
            omitted.sequence.vectors, omitted.detected,
            omitted.extra_detected, attempts, decisions)

    session, narrowed = compact(None)
    assert session.sim_backend == "vector"
    _packed, reference = compact("packed")
    assert narrowed == reference


@requires_vector
def test_compaction_queries_never_step_per_cycle(monkeypatch):
    """Restoration and omission on a vector-backed oracle answer every
    session query with one kernel call: with the per-cycle step made to
    raise they still finish, exactly as on the packed reference."""
    from repro.sim.kernel import VectorFaultSimulator

    circuit = random_circuit("ns", 4, 5, 60, seed=3)
    faults = collapse_faults(circuit)
    sequence = TestSequence(
        circuit.inputs, random_vectors(circuit, 40, random.Random(2)))

    def compact(backend):
        oracle = CompactionOracle(circuit, faults, sim_backend=backend)
        restored = restoration_compact(circuit, sequence, faults,
                                       oracle=oracle)
        omitted = omission_compact(circuit, restored.sequence, faults,
                                   oracle=oracle)
        return oracle, (
            restored.sequence.vectors, restored.detected,
            omitted.sequence.vectors, omitted.detected,
            omitted.extra_detected)

    _packed, reference = compact("packed")

    def step(self, vector):
        raise AssertionError("a session query stepped one cycle")

    monkeypatch.setattr(VectorFaultSimulator, "step", step)
    session, got = compact(None)
    assert session.sim_backend == "vector"
    assert session.cycles_simulated > 0
    assert reference[1] and got == reference


class TestScanTestMask:
    def test_matches_raw_simulator(self):
        """scan_test_mask == manual load_state + step + ff effects."""
        from repro.atpg.scan_sim import scan_test_detections
        from repro.atpg.scan_seq import SecondApproachATPG, \
            SecondApproachConfig

        circuit = s27()
        scan_circuit = insert_scan(circuit)
        baseline = SecondApproachATPG(
            circuit, config=SecondApproachConfig(seed=4)).generate()
        faults = collapse_faults(circuit)
        sim = PackedFaultSimulator(circuit, faults)
        session = SimSession(circuit, faults)
        assert scan_circuit is not None  # scan metadata exercised upstream
        for test in baseline.test_set:
            expected = scan_test_detections(sim, test)
            assert session.scan_test_mask(test.scan_in, test.vectors) == \
                expected
