"""End-to-end flows (Sections 2+4 and 3+4) on s27 and synthetics."""

import pytest

from repro import obs
from repro.atpg import UNTESTABLE, Podem, SeqATPGConfig, comb_view
from repro.circuit import random_circuit, s27
from repro.circuit.corpus import flow_overrides
from repro.core import FlowConfig, generation_flow, translation_flow
from repro.experiments.suite import build_circuit
from repro.sim import PackedFaultSimulator


@pytest.fixture(scope="module")
def s27_generation():
    return generation_flow(s27(), FlowConfig(seed=1))


@pytest.fixture(scope="module")
def s27_translation():
    return translation_flow(s27(), FlowConfig(seed=1))


class TestGenerationFlow:
    def test_full_coverage(self, s27_generation):
        flow = s27_generation
        assert flow.fault_coverage == 100.0
        assert flow.testable_coverage == 100.0
        assert not flow.untestable

    def test_compaction_monotone(self, s27_generation):
        flow = s27_generation
        raw, restor, omit = (
            flow.raw_stats(), flow.restored_stats(), flow.omitted_stats()
        )
        assert omit.total <= restor.total <= raw.total
        assert omit.scan <= raw.scan

    def test_compacted_sequence_keeps_coverage(self, s27_generation):
        flow = s27_generation
        sim = PackedFaultSimulator(flow.scan_circuit.circuit, flow.faults)
        result = sim.run(list(flow.omitted.sequence.vectors))
        assert set(flow.atpg.detection_time) <= set(result.detection_time)

    def test_limited_scan_operations_present(self, s27_generation):
        """At least one scan run shorter than the chain — the paper's
        limited scan operations arising naturally."""
        flow = s27_generation
        n_sv = flow.circuit.num_state_vars
        runs = flow.omitted.sequence.scan_runs()
        assert any(run < n_sv for run in runs)

    def test_extra_detected_counts_restoration_gains(self):
        """``detected_total + extra_detected`` is everything the final
        sequence detects, including the faults restoration gains over
        the generated sequence (s1196 seed 16: 731 + 37 = 768)."""
        flow = generation_flow(
            build_circuit("s1196"),
            FlowConfig(seed=16, jobs=1,
                       **flow_overrides("s1196", seed_offset=16)))
        sim = PackedFaultSimulator(flow.scan_circuit.circuit, flow.faults)
        detected = len(sim.run(list(flow.omitted.sequence.vectors))
                       .detection_time)
        assert detected == 768
        assert flow.detected_total + flow.extra_detected == detected

    def test_no_compact_flag(self):
        flow = generation_flow(s27(), FlowConfig(seed=1, compact=False))
        assert flow.restored is None
        assert flow.omitted is None
        assert flow.extra_detected == 0

    def test_redundancy_classification_on_synthetic(self):
        """Synthetic circuits carry redundant logic; the classifier proves
        it and the testable coverage lands at (or near) 100%."""
        circuit = random_circuit("p", 3, 10, 70, seed=51)
        flow = generation_flow(
            circuit,
            FlowConfig(seed=1,
                       atpg=SeqATPGConfig(seed=1, initial_random_vectors=32,
                                          max_subseq_len=16, restarts=1)),
        )
        assert flow.untestable, "random logic should have redundancy"
        assert flow.testable_coverage >= 99.0
        assert flow.testable_coverage >= flow.fault_coverage

    def test_elapsed_recorded(self, s27_generation):
        assert s27_generation.elapsed_seconds > 0


def _redundancy_targets(flow):
    """The aborted faults the redundancy pass proves (D-pin faults of
    flops have no comb-view site and are skipped)."""
    flops = flow.scan_circuit.circuit.flop_by_q
    return [f for f in flow.atpg.base.aborted
            if f.consumer is None or f.consumer not in flops]


def _fresh_proofs(flow, targets, limit):
    podem = Podem(comb_view(flow.scan_circuit.circuit).circuit,
                  backtrack_limit=limit)
    return [f for f in targets if podem.run(f).status == UNTESTABLE]


class TestRedundancyReuse:
    """The redundancy pass asks the generator's PODEM engine, whose memo
    already holds the justification hook's verdicts on the same view."""

    def test_every_proof_is_a_memo_hit(self, tmp_path):
        cfg = FlowConfig(seed=0, cache_dir=str(tmp_path))  # cold run
        with obs.session() as telemetry:
            flow = generation_flow(build_circuit("s298"), cfg)
        targets = _redundancy_targets(flow)
        assert targets
        counters = telemetry.metrics
        assert counters.counter("atpg.podem.memo_hits").value == len(targets)
        assert flow.untestable == _fresh_proofs(
            flow, targets, cfg.redundancy_backtrack_limit)

    def test_cached_atpg_proves_on_a_fresh_engine(self, tmp_path):
        circuit = build_circuit("s298")
        cfg = FlowConfig(seed=0, cache_dir=str(tmp_path))
        cold = generation_flow(circuit, cfg)
        with obs.session() as telemetry:
            warm = generation_flow(
                circuit, cfg.replace(redundancy_backtrack_limit=5000))
        counters = telemetry.metrics
        assert counters.counter("cache.hit.atpg").value == 1
        assert counters.counter("cache.miss.redundancy").value == 1
        targets = _redundancy_targets(warm)
        assert counters.counter("atpg.podem.calls").value == len(targets)
        assert counters.counter("atpg.podem.memo_hits").value == 0
        assert warm.untestable == cold.untestable
        assert warm.untestable == _fresh_proofs(warm, targets, 5000)


class TestTranslationFlow:
    def test_translated_length_equals_baseline_cycles(self, s27_translation):
        flow = s27_translation
        assert flow.translated_stats().total == flow.baseline_cycles

    def test_compaction_strictly_helps(self, s27_translation):
        flow = s27_translation
        assert flow.omitted_stats().total < flow.baseline_cycles

    def test_compaction_monotone(self, s27_translation):
        flow = s27_translation
        assert flow.omitted_stats().total <= flow.restored_stats().total \
            <= flow.translated_stats().total

    def test_translated_sequence_is_binary(self, s27_translation):
        from repro.circuit.gates import X

        for vector in s27_translation.translated:
            assert X not in vector

    def test_baseline_reuse(self, s27_translation):
        """Passing a precomputed baseline skips regeneration."""
        flow2 = translation_flow(s27(), FlowConfig(seed=1),
                                 baseline=s27_translation.baseline)
        assert flow2.baseline is s27_translation.baseline
        assert flow2.baseline_cycles == s27_translation.baseline_cycles

    def test_limited_scan_emerges_from_translation(self, s27_translation):
        """The translated set has only complete scan runs; compaction must
        create at least one limited one (or remove runs entirely)."""
        flow = s27_translation
        n_sv = flow.circuit.num_state_vars
        before = flow.translated.scan_runs()
        after = flow.omitted.sequence.scan_runs()
        assert all(run >= n_sv for run in before)
        assert (not after) or any(run < n_sv for run in after) \
            or len(after) < len(before)


class TestFlowConfig:
    def test_frozen(self):
        cfg = FlowConfig(seed=1)
        with pytest.raises(Exception):
            cfg.seed = 2

    def test_replace(self):
        cfg = FlowConfig(seed=1).replace(num_chains=2)
        assert (cfg.seed, cfg.num_chains) == (1, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            FlowConfig(jobs=-1)
        with pytest.raises(ValueError):
            FlowConfig(max_omission_passes=0)
        with pytest.raises(ValueError):
            FlowConfig(num_chains=0)

    def test_legacy_kwargs_warn_and_match(self, s27_generation):
        """Loose flow keywords are no longer accepted; the equivalent
        FlowConfig is the one way to configure the flow."""
        with pytest.raises(TypeError):
            generation_flow(s27(), seed=1)
        flow = generation_flow(s27(), FlowConfig(seed=1))
        assert flow.omitted_stats() == s27_generation.omitted_stats()
        assert flow.fault_coverage == s27_generation.fault_coverage

    def test_legacy_positional_seed(self):
        """A bare seed in the config position is a TypeError."""
        with pytest.raises(TypeError, match="must be a FlowConfig"):
            generation_flow(s27(), 1)
        with pytest.raises(TypeError):
            generation_flow(s27(), 1, compact=False)

    def test_legacy_atpg_config_kwarg(self):
        """An engine config, by keyword or in the config position, is a
        TypeError."""
        with pytest.raises(TypeError, match="must be a FlowConfig"):
            generation_flow(s27(), SeqATPGConfig(seed=1))
        with pytest.raises(TypeError, match="must be a FlowConfig"):
            generation_flow(s27(), config=SeqATPGConfig(seed=1))

    def test_translation_legacy_kwargs_warn(self):
        """translation_flow rejects the same non-FlowConfig arguments."""
        for bad in (1, SeqATPGConfig(seed=1)):
            with pytest.raises(TypeError, match="must be a FlowConfig"):
                translation_flow(s27(), bad)
        with pytest.raises(TypeError):
            translation_flow(s27(), seed=1, compact=False)

    def test_config_plus_legacy_rejected(self):
        with pytest.raises(TypeError):
            generation_flow(s27(), FlowConfig(seed=1), compact=False)

    def test_unknown_kwarg_rejected(self):
        with pytest.raises(TypeError):
            generation_flow(s27(), bogus=True)
        with pytest.raises(TypeError):
            # generation-only keyword is not valid for translation
            translation_flow(s27(), use_justification=False)


class TestHeadlineClaim:
    def test_generated_beats_complete_scan_baseline(self):
        """Table 6's claim on the exact s27: the compacted limited-scan
        sequence applies in fewer cycles than the conventional baseline,
        at equal-or-better fault coverage."""
        gen = generation_flow(s27(), FlowConfig(seed=1))
        trans = translation_flow(s27(), FlowConfig(seed=1))
        assert gen.omitted_stats().total < trans.baseline_cycles
        sim = PackedFaultSimulator(gen.scan_circuit.circuit, gen.faults)
        coverage = sim.run(list(gen.omitted.sequence.vectors)).coverage()
        assert coverage == 100.0
