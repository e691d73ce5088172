"""Transition (at-speed) fault model: packed simulator vs an independent
naive reference, and end-to-end generation/compaction on the scan
circuit."""

import hashlib
import random

import pytest

from repro.atpg import SeqATPGConfig
from repro.circuit import Circuit, Gate, insert_scan, random_circuit, s27
from repro.circuit.gates import ONE, X, ZERO, eval_gate
from repro.compaction import CompactionOracle, omission_compact, restoration_compact
from repro.core import ScanAwareATPG
from repro.faults import (
    TransitionFault,
    enumerate_transition_faults,
    slow_to_fall,
    slow_to_rise,
)
from repro.sim import PackedTransitionSimulator
from tests.util import random_vectors


# -- independent reference implementation ---------------------------------------


def naive_transition_run(circuit, fault, vectors):
    """Scalar dual-machine gross-delay simulation, written independently:
    the faulty machine's site holds its previous (post-injection) value
    whenever it would make the slow transition.  Returns first detection
    time or None."""
    held = fault.held_value
    launching = (ZERO, ONE) if fault.slow_to == "rise" else (ONE, ZERO)
    good_state = {f.q: X for f in circuit.flops}
    faulty_state = {f.q: X for f in circuit.flops}
    prev_site = X

    for time, vector in enumerate(vectors):
        good = dict(zip(circuit.inputs, vector))
        faulty = dict(zip(circuit.inputs, vector))
        for flop in circuit.flops:
            good[flop.q] = good_state[flop.q]
            faulty[flop.q] = faulty_state[flop.q]

        def site_filter(value):
            nonlocal prev_site
            if prev_site == launching[0] and value == launching[1]:
                value = held
            prev_site = value
            return value

        if fault.net in faulty and circuit.driver_kind(fault.net) != "gate":
            faulty[fault.net] = site_filter(faulty[fault.net])
        for gate in circuit.topo_gates:
            good[gate.output] = eval_gate(
                gate.kind, [good[n] for n in gate.inputs]
            )
            value = eval_gate(gate.kind, [faulty[n] for n in gate.inputs])
            if gate.output == fault.net:
                value = site_filter(value)
            faulty[gate.output] = value
        for po in circuit.outputs:
            g, f = good[po], faulty[po]
            if g != X and f != X and g != f:
                return time
        good_state = {f.q: good[f.d] for f in circuit.flops}
        faulty_state = {f.q: faulty[f.d] for f in circuit.flops}
    return None


def assert_agrees(circuit, faults, vectors):
    packed = PackedTransitionSimulator(circuit, faults).run(vectors)
    for fault in faults:
        expected = naive_transition_run(circuit, fault, vectors)
        got = packed.detection_time.get(fault)
        assert got == expected, f"{fault}: packed={got} naive={expected}"


class TestModel:
    def test_str_repr(self):
        assert str(slow_to_rise("n1")) == "n1/STR"
        assert str(slow_to_fall("n1")) == "n1/STF"

    def test_held_value(self):
        assert slow_to_rise("n").held_value == 0
        assert slow_to_fall("n").held_value == 1

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            TransitionFault(net="n", slow_to="sideways")

    def test_enumeration(self, s27_circuit):
        faults = enumerate_transition_faults(s27_circuit)
        assert len(faults) == 2 * len(s27_circuit.nets())

    def test_unknown_net_rejected(self, s27_circuit):
        with pytest.raises(ValueError):
            PackedTransitionSimulator(s27_circuit, [slow_to_rise("ghost")])


class TestBasicSemantics:
    @staticmethod
    def buf_chain():
        return Circuit("t", ["a"], ["y"], [
            Gate("m", "BUF", ("a",)),
            Gate("y", "BUF", ("m",)),
        ])

    def test_rise_launch_detected(self):
        c = self.buf_chain()
        sim = PackedTransitionSimulator(c, [slow_to_rise("a")])
        assert sim.step((ZERO,)) == 0
        assert sim.step((ONE,)) == 0b10  # launch + capture same cycle here

    def test_no_launch_without_transition(self):
        c = self.buf_chain()
        sim = PackedTransitionSimulator(c, [slow_to_rise("a")])
        for _ in range(5):
            assert sim.step((ONE,)) == 0  # never saw the 0 first

    def test_x_history_never_launches(self):
        c = self.buf_chain()
        sim = PackedTransitionSimulator(c, [slow_to_rise("a")])
        # First vector: previous value unknown, no launch even though the
        # value is 1.
        assert sim.step((ONE,)) == 0

    def test_fall_direction(self):
        c = self.buf_chain()
        sim = PackedTransitionSimulator(c, [slow_to_fall("a")])
        sim.step((ONE,))
        assert sim.step((ZERO,)) == 0b10

    def test_repeated_blocking_holds(self):
        """Gross-delay: while blocked, the site keeps the stale value, so
        the very next cycle it launches again from the stale value."""
        c = self.buf_chain()
        sim = PackedTransitionSimulator(c, [slow_to_rise("a")])
        sim.step((ZERO,))
        assert sim.step((ONE,)) == 0b10
        # Still 1 on the input: previous faulty value was held at 0, so
        # the transition keeps being blocked and keeps being detected.
        assert sim.step((ONE,)) == 0b10


class TestAgreementWithNaive:
    def test_s27(self, s27_circuit):
        faults = enumerate_transition_faults(s27_circuit)
        assert_agrees(s27_circuit, faults,
                      random_vectors(s27_circuit, 60, seed=31))

    def test_s27_scan(self, s27_scan):
        circuit = s27_scan.circuit
        faults = enumerate_transition_faults(circuit)
        assert_agrees(circuit, faults, random_vectors(circuit, 60, seed=32))

    def test_random_circuit(self):
        c = random_circuit("tdf", 4, 6, 35, seed=99)
        faults = enumerate_transition_faults(c)[::3]
        assert_agrees(c, faults, random_vectors(c, 50, seed=33))

    def test_toy_pipeline(self, toy_pipeline_circuit):
        faults = enumerate_transition_faults(toy_pipeline_circuit)
        assert_agrees(toy_pipeline_circuit, faults,
                      random_vectors(toy_pipeline_circuit, 40, seed=34))


class TestStateManagement:
    def test_save_restore_includes_history(self, s27_circuit):
        faults = enumerate_transition_faults(s27_circuit)
        sim = PackedTransitionSimulator(s27_circuit, faults)
        vectors = random_vectors(s27_circuit, 30, seed=35)
        for v in vectors[:10]:
            sim.step(v)
        snapshot = sim.save_state()
        a = [sim.step(v) for v in vectors[10:]]
        sim.restore_state(snapshot)
        b = [sim.step(v) for v in vectors[10:]]
        assert a == b

    def test_load_machine_states_clears_history(self, s27_circuit):
        faults = enumerate_transition_faults(s27_circuit)[:3]
        sim = PackedTransitionSimulator(s27_circuit, faults)
        sim.step((1, 1, 1, 1))
        sim.load_machine_states([(ZERO, ZERO, ZERO)] * 4)
        assert sim._prev == {}
        assert sim.machine_state(0) == (ZERO, ZERO, ZERO)


class TestAtSpeedGeneration:
    @pytest.fixture(scope="class")
    def generated(self):
        sc = insert_scan(s27())
        faults = enumerate_transition_faults(sc.circuit)
        result = ScanAwareATPG(
            sc, faults,
            config=SeqATPGConfig(seed=1, max_subseq_len=64),
            use_justification=False,
            simulator_factory=PackedTransitionSimulator,
        ).generate()
        return sc, faults, result

    def test_full_tdf_coverage_on_s27_scan(self, generated):
        _sc, faults, result = generated
        assert result.base.detected_count == len(faults)

    def test_confirmed_by_resimulation(self, generated):
        sc, faults, result = generated
        sim = PackedTransitionSimulator(sc.circuit, faults)
        confirmed = sim.run(list(result.sequence.vectors))
        assert confirmed.detection_time == result.base.detection_time

    def test_compaction_on_tdf_sequence(self, generated):
        """Restoration + omission work unchanged with the transition
        oracle — the paper's machinery is fault-model-agnostic."""
        sc, faults, result = generated
        oracle = CompactionOracle(
            sc.circuit, faults, simulator_factory=PackedTransitionSimulator
        )
        restored = restoration_compact(sc.circuit, result.sequence, faults,
                                       oracle=oracle)
        omitted = omission_compact(sc.circuit, restored.sequence, faults,
                                   oracle=oracle)
        assert len(omitted.sequence) <= len(restored.sequence) \
            <= len(result.sequence)
        sim = PackedTransitionSimulator(sc.circuit, faults)
        final = sim.run(list(omitted.sequence.vectors))
        assert len(final.detection_time) == len(faults)

    def test_flow_digest_is_pinned(self, generated):
        """The s27_scan transition flow at seed 1 — generated sequence,
        its detection times, restored and omitted sequences — hashes to
        a pinned digest, so any change to a result bit of the transition
        simulator, the generator or the compactors shows here."""
        sc, faults, result = generated
        oracle = CompactionOracle(
            sc.circuit, faults, simulator_factory=PackedTransitionSimulator
        )
        restored = restoration_compact(sc.circuit, result.sequence, faults,
                                       oracle=oracle)
        omitted = omission_compact(sc.circuit, restored.sequence, faults,
                                   oracle=oracle)
        parts = [list(result.sequence.vectors),
                 sorted((str(f), t)
                        for f, t in result.base.detection_time.items()),
                 list(restored.sequence.vectors),
                 list(omitted.sequence.vectors)]
        assert hashlib.sha256(repr(parts).encode()).hexdigest() == (
            "c60c83154e6bfa2d07cd93762c23666ff496ecb19311f0b42f81fea621658471")
