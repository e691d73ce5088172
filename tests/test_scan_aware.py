"""Section 2 scan-aware test generation: coverage, funct accounting,
the two functional-knowledge completions and verdict-first triage."""

import pytest

from repro import obs
from repro.atpg import (
    UNTESTABLE,
    Podem,
    SeqATPGConfig,
    SequentialATPG,
    comb_view,
)
from repro.circuit import insert_scan, random_circuit, s27
from repro.core import FlowConfig, ScanAwareATPG
from repro.experiments.suite import build_circuit
from repro.faults import collapse_faults
from repro.sim import PackedFaultSimulator


@pytest.fixture(scope="module")
def s27_result():
    sc = insert_scan(s27())
    faults = collapse_faults(sc.circuit)
    atpg = ScanAwareATPG(sc, faults, config=SeqATPGConfig(seed=1))
    return sc, faults, atpg.generate()


class TestS27FullCoverage:
    def test_full_coverage(self, s27_result):
        _sc, faults, result = s27_result
        assert result.base.detected_count == len(faults)
        assert result.coverage() == 100.0

    def test_sequence_detects_everything_from_scratch(self, s27_result):
        """Independent confirmation: simulating the emitted sequence from
        power-up detects every fault claimed detected."""
        sc, faults, result = s27_result
        sim = PackedFaultSimulator(sc.circuit, faults)
        confirmed = sim.run(list(result.sequence.vectors))
        assert set(confirmed.detection_time) == set(result.detection_time)

    def test_detection_times_match(self, s27_result):
        sc, faults, result = s27_result
        sim = PackedFaultSimulator(sc.circuit, faults)
        confirmed = sim.run(list(result.sequence.vectors))
        assert confirmed.detection_time == result.detection_time

    def test_uses_scan_sel_as_ordinary_input(self, s27_result):
        """The generated sequence interleaves scan and functional cycles
        (the point of the paper) rather than segregating them."""
        _sc, _faults, result = s27_result
        runs = result.sequence.scan_runs()
        assert runs, "some scan activity expected"
        assert result.sequence.scan_vector_count() < len(result.sequence)

    def test_funct_accounting_consistent(self, s27_result):
        _sc, _faults, result = s27_result
        assert result.funct_count == \
            len(result.funct_scan_out) + len(result.funct_justify)
        for fault in result.funct_scan_out + result.funct_justify:
            assert fault in result.detection_time


class TestKnowledgeToggles:
    def test_without_knowledge_no_funct(self, s27_circuit):
        sc = insert_scan(s27_circuit)
        faults = collapse_faults(sc.circuit)
        result = ScanAwareATPG(
            sc, faults, config=SeqATPGConfig(seed=1),
            use_scan_knowledge=False,
        ).generate()
        assert result.funct_count == 0

    def test_knowledge_never_hurts(self):
        """On a synthetic circuit, enabling the completions detects at
        least as many faults for the same search budget."""
        circuit = random_circuit("k", 3, 12, 70, seed=41)
        sc = insert_scan(circuit)
        faults = collapse_faults(sc.circuit)
        config = SeqATPGConfig(seed=2, initial_random_vectors=16,
                               candidates_per_step=4, max_subseq_len=12,
                               restarts=1)
        with_k = ScanAwareATPG(sc, faults, config=config).generate()
        without_k = ScanAwareATPG(sc, faults, config=config,
                                  use_scan_knowledge=False).generate()
        assert with_k.base.detected_count >= without_k.base.detected_count

    def test_justification_disabled(self):
        circuit = random_circuit("j", 3, 10, 60, seed=42)
        sc = insert_scan(circuit)
        faults = collapse_faults(sc.circuit)
        result = ScanAwareATPG(
            sc, faults, config=SeqATPGConfig(seed=3),
            use_justification=False,
        ).generate()
        assert not result.funct_justify


class TestScanInVectors:
    def test_scan_in_reaches_state(self, s27_scan):
        """The scan-in builder the justification completion uses loads
        exactly the requested state, whatever fills its X inputs
        (verified through the real circuit)."""
        from repro.circuit.gates import ONE, ZERO
        from repro.sim import LogicSimulator

        import random

        rng = random.Random(0)
        for state in ((ZERO, ONE, ONE), (ONE, ONE, ZERO), (ZERO, ZERO, ZERO)):
            vectors = s27_scan.scan_in_vectors(state)
            assert len(vectors) == 3
            sim = LogicSimulator(s27_scan.circuit)
            for vector in vectors:
                filled = tuple(
                    rng.randint(0, 1) if v == 2 else v for v in vector
                )
                sim.step(filled)
            assert sim.state == state

    def test_scan_vector_shape(self, s27_scan):
        from repro.circuit.gates import ONE, X

        vector = s27_scan.shift_vector()
        sel_idx = s27_scan.circuit.inputs.index("scan_sel")
        assert vector[sel_idx] == ONE
        assert vector.count(X) == len(vector) - 1


class TestMultiChain:
    def test_multi_chain_generation(self):
        circuit = random_circuit("mc", 4, 9, 50, seed=13)
        sc = insert_scan(circuit, num_chains=3)
        faults = collapse_faults(sc.circuit)
        result = ScanAwareATPG(
            sc, faults,
            config=SeqATPGConfig(seed=4, initial_random_vectors=32,
                                 max_subseq_len=12, restarts=1),
        ).generate()
        # Multi-chain scan shortens observation paths; decent coverage
        # must be reachable.
        assert result.base.detected_count > 0.6 * len(faults)

    def test_multi_chain_scan_in(self):
        from repro.circuit.gates import X
        from repro.sim import LogicSimulator
        import random

        circuit = random_circuit("mc2", 4, 7, 40, seed=14)
        sc = insert_scan(circuit, num_chains=2)
        state = tuple(i % 2 for i in range(7))
        vectors = sc.scan_in_vectors(state)
        assert len(vectors) == sc.max_chain_length
        rng = random.Random(1)
        sim = LogicSimulator(sc.circuit)
        for vector in vectors:
            sim.step(tuple(rng.randint(0, 1) if v == X else v for v in vector))
        assert sim.state == state


class TestTargetCap:
    def test_untargeted_faults_accounted(self):
        """Faults past ``max_targeted_faults`` get no search; each ends
        up detected (by fault dropping) or untargeted, in universe order.
        ``aborted`` holds searched targets only, as ``atpg.seq.aborted``
        counts them, and coverage divides by the whole universe."""
        sc = insert_scan(build_circuit("s298"))
        faults = collapse_faults(sc.circuit)
        config = SeqATPGConfig(seed=2, initial_random_vectors=8,
                               max_subseq_len=4, restarts=1,
                               max_targeted_faults=8)
        with obs.session() as telemetry:
            result = SequentialATPG(sc.circuit, faults,
                                    config=config).generate()
        counters = telemetry.metrics.snapshot()["counters"]
        detected = set(result.detection_time)
        aborted, untargeted = set(result.aborted), set(result.untargeted)
        assert len(detected) + len(aborted) + len(untargeted) == len(faults)
        assert not detected & aborted
        assert not detected & untargeted
        assert not aborted & untargeted
        assert counters["atpg.seq.targets"] <= 8
        assert 0 < len(result.aborted) <= counters["atpg.seq.aborted"]
        assert len(result.untargeted) > len(faults) // 2
        position = {fault: i for i, fault in enumerate(faults)}
        assert result.untargeted == sorted(result.untargeted,
                                           key=position.__getitem__)
        assert result.coverage() == pytest.approx(
            100.0 * len(detected) / len(faults))


#: Triage soundness cases: suite circuits at the default search effort,
#: synthetic ones (rich in redundant logic) at a small one.
_SMALL_SEARCH = dict(initial_random_vectors=32, max_subseq_len=16,
                     restarts=1)
_TRIAGE_CASES = [
    ("s208", 0, {}),
    ("s298", 1, {}),
    ("synth41", 1, _SMALL_SEARCH),
    ("synth45", 2, _SMALL_SEARCH),
    ("synth51", 0, _SMALL_SEARCH),
]


def _triage_circuit(name):
    if name.startswith("synth"):
        return insert_scan(random_circuit(name, 3, 4, 40, seed=int(name[5:])))
    return insert_scan(build_circuit(name))


class TestVerdictFirstTriage:
    """Faults PODEM proves untestable on the comb view are aborted
    before their search; the proof must hold and the skip must cost no
    detection."""

    @pytest.mark.parametrize("name,seed,search", _TRIAGE_CASES,
                             ids=[case[0] for case in _TRIAGE_CASES])
    def test_skipped_faults_are_sound(self, name, seed, search):
        sc = _triage_circuit(name)
        faults = collapse_faults(sc.circuit)
        config = SeqATPGConfig(seed=seed, **search)
        with obs.session(ledger=True) as telemetry:
            triaged = ScanAwareATPG(sc, faults, config=config).generate()
        skipped = [e.fault for e in telemetry.ledger.events
                   if e.kind == "atpg.abort" and e.data.get("proven")]
        assert skipped
        assert telemetry.metrics.counter("atpg.seq.proven").value \
            == len(skipped)
        assert set(skipped) <= set(triaged.base.aborted)

        limit = FlowConfig().redundancy_backtrack_limit
        podem = Podem(comb_view(sc.circuit).circuit, backtrack_limit=limit)
        assert all(podem.run(f).status == UNTESTABLE for f in skipped)

        # The reference searches every target with the same completions.
        hook = ScanAwareATPG(sc, faults, config=config)._complete
        reference = SequentialATPG(sc.circuit, faults, config=config,
                                   completion_hook=hook).generate()
        assert reference.detected_count == triaged.base.detected_count
        for result in (triaged, reference):
            sim = PackedFaultSimulator(sc.circuit, faults)
            detected = sim.run(list(result.sequence.vectors)).detection_time
            assert not set(skipped) & set(detected)

    def test_forward_only_does_not_triage(self):
        sc = _triage_circuit("synth51")
        faults = collapse_faults(sc.circuit)
        config = SeqATPGConfig(seed=0, **_SMALL_SEARCH)
        for kwargs in ({"use_justification": False},
                       {"use_scan_knowledge": False}):
            with obs.session() as telemetry:
                result = ScanAwareATPG(sc, faults, config=config,
                                       **kwargs).generate()
            assert result.base.aborted
            assert telemetry.metrics.counter("atpg.seq.proven").value == 0
