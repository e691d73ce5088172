"""The content-addressed result store and the warm-restart guarantees.

Covers the PR's tentpole and its regression satellites:

* fingerprint canonicalization (name-insensitive, gate-order invariant,
  IO-order sensitive) and the identity-keyed memo;
* store round-trips, atomicity-adjacent corruption tolerance (truncated
  / garbage / wrong-schema / relocated entries are all clean misses that
  re-derive), stats and clear;
* the ``compiled_topology`` stale-cache fix (in-place netlist mutation
  must recompile);
* omission's drop accounting: drops never leak, even when a query blows
  up mid-sweep;
* the headline property: cold and warm flows are bit-identical (s27 and
  a synthetic circuit, cold ``jobs=1`` and warm ``jobs=2``), and the
  warm run does zero ATPG engine work and zero full-universe fault-sim
  cycles.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.cache import (
    ResultStore,
    StageCache,
    circuit_fingerprint,
    config_fingerprint,
    faults_fingerprint,
    vectors_fingerprint,
)
from repro.circuit import insert_scan, s27
from repro.circuit.netlist import Circuit, Gate
from repro.compaction import CompactionOracle, omission_compact
from repro.core import FlowConfig, generation_flow
from repro.faults import collapse_faults
from repro.sim.fault_sim import compiled_topology
from repro.testseq import TestSequence

from tests.util import random_vectors


# -- fingerprints -------------------------------------------------------------


def _two_gate_circuit(name="c", kinds=("AND", "OR"), inputs=("a", "b")):
    return Circuit(
        name,
        inputs,
        ["y", "z"],
        [Gate("y", kinds[0], ("a", "b")), Gate("z", kinds[1], ("a", "b"))],
    )


def test_fingerprint_ignores_name():
    assert circuit_fingerprint(_two_gate_circuit("foo")) == \
        circuit_fingerprint(_two_gate_circuit("bar"))


def test_fingerprint_invariant_under_gate_declaration_order():
    forward = Circuit("c", ["a", "b"], ["y", "z"],
                      [Gate("y", "AND", ("a", "b")),
                       Gate("z", "OR", ("a", "b"))])
    backward = Circuit("c", ["a", "b"], ["y", "z"],
                       [Gate("z", "OR", ("a", "b")),
                        Gate("y", "AND", ("a", "b"))])
    assert circuit_fingerprint(forward) == circuit_fingerprint(backward)


def test_fingerprint_sensitive_to_io_order_and_structure():
    base = _two_gate_circuit()
    swapped_inputs = _two_gate_circuit(inputs=("b", "a"))
    other_kind = _two_gate_circuit(kinds=("NAND", "OR"))
    assert circuit_fingerprint(base) != circuit_fingerprint(swapped_inputs)
    assert circuit_fingerprint(base) != circuit_fingerprint(other_kind)


def test_fingerprint_memo_tracks_inplace_mutation():
    circuit = _two_gate_circuit()
    before = circuit_fingerprint(circuit)
    assert circuit_fingerprint(circuit) == before  # memoized path
    Circuit.__init__(circuit, circuit.name, circuit.inputs, circuit.outputs,
                     [Gate("y", "XOR", ("a", "b")),
                      Gate("z", "OR", ("a", "b"))], circuit.flops)
    after = circuit_fingerprint(circuit)
    assert after != before
    assert after == circuit_fingerprint(
        _two_gate_circuit(kinds=("XOR", "OR")))


def test_stage_and_schema_mixed_into_config_fingerprint():
    assert config_fingerprint("atpg", seed=1) != \
        config_fingerprint("baseline", seed=1)
    assert config_fingerprint("atpg", seed=1) != \
        config_fingerprint("atpg", seed=2)


def test_faults_and_vectors_fingerprints_are_order_sensitive():
    circuit = s27()
    faults = collapse_faults(circuit)
    assert faults_fingerprint(faults) != \
        faults_fingerprint(list(reversed(faults)))
    vectors = random_vectors(circuit, 4)
    assert vectors_fingerprint(vectors) != \
        vectors_fingerprint(list(reversed(vectors)))


# -- store round-trips and corruption tolerance -------------------------------


def _addressed(tmp_path):
    store = ResultStore(tmp_path / "cache")
    cfp = "ab" + "0" * 62
    kfp = config_fingerprint("collapse", probe=1)
    return store, cfp, kfp


def test_store_round_trip_and_stats(tmp_path):
    store, cfp, kfp = _addressed(tmp_path)
    payload = {"faults": [["gate_output", "G1", None, None, 1]]}
    assert store.get("collapse", cfp, kfp) is None
    store.put("collapse", cfp, kfp, payload)
    assert store.get("collapse", cfp, kfp) == payload
    stats = store.stats()
    assert stats.entries == 1
    assert stats.stages == {"collapse": 1}
    assert stats.total_bytes > 0
    assert store.clear() == 1
    assert store.get("collapse", cfp, kfp) is None
    assert store.stats().entries == 0


@pytest.mark.parametrize("damage", ["truncate", "garbage", "schema", "swap"])
def test_damaged_entries_miss_then_rederive(tmp_path, damage):
    store, cfp, kfp = _addressed(tmp_path)
    store.put("collapse", cfp, kfp, {"v": 1})
    path = store._entry_path("collapse", cfp, kfp)
    if damage == "truncate":
        path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2])
    elif damage == "garbage":
        path.write_bytes(b"\x00\xff not json at all \xfe")
    elif damage == "schema":
        envelope = json.loads(path.read_text())
        envelope["schema"] = "repro.cache/999"
        path.write_text(json.dumps(envelope))
    elif damage == "swap":
        # A relocated/renamed entry: the filename now claims a different
        # address than the envelope records -> fingerprint mismatch.
        other = config_fingerprint("collapse", probe=2)
        path.rename(store._entry_path("collapse", cfp, other))
        kfp = other
    assert store.get("collapse", cfp, kfp) is None  # miss, not a crash
    store.put("collapse", cfp, kfp, {"v": 2})  # re-derivation repairs it
    assert store.get("collapse", cfp, kfp) == {"v": 2}


def test_detection_stage_preserves_dict_order(tmp_path):
    circuit = insert_scan(s27()).circuit
    faults = collapse_faults(circuit)
    vectors = random_vectors(circuit, 12, seed=7)
    oracle = CompactionOracle(circuit, faults)
    try:
        times = oracle.detection_times(vectors)
    finally:
        oracle.close()
    stages = StageCache(ResultStore(tmp_path / "cache"), circuit)
    stages.save_detection(faults, vectors, times)
    replayed = stages.load_detection(faults, vectors)
    assert replayed == times
    assert list(replayed) == list(times)  # insertion order is identity


# -- satellite regressions ----------------------------------------------------


def test_compiled_topology_recompiles_after_inplace_mutation():
    circuit = _two_gate_circuit()
    first = compiled_topology(circuit)
    assert compiled_topology(circuit) is first  # cached
    Circuit.__init__(circuit, circuit.name, circuit.inputs, circuit.outputs,
                     [Gate("y", "OR", ("a", "b")),
                      Gate("z", "AND", ("a", "b"))], circuit.flops)
    second = compiled_topology(circuit)
    assert second is not first  # the stale-cache bug served `first` here
    assert compiled_topology(circuit) is second


class _ExplodingOracle(CompactionOracle):
    """Raises on the Nth trial query — after omission has dropped the
    never-required faults, mid-sweep."""

    def __init__(self, *args, explode_after=1, **kwargs):
        super().__init__(*args, **kwargs)
        self._fuse = explode_after
        self.dropped_at_boom = None

    def detected_mask(self, vectors, target_mask=None):
        self._fuse -= 1
        if self._fuse < 0:
            self.dropped_at_boom = self.session.dropped_mask
            raise RuntimeError("boom")
        return super().detected_mask(vectors, target_mask)


def test_omission_restores_drops_on_mid_sweep_failure():
    circuit = insert_scan(s27()).circuit
    faults = collapse_faults(circuit)
    sequence = TestSequence(circuit.inputs, random_vectors(circuit, 20, seed=3))
    oracle = _ExplodingOracle(circuit, faults, explode_after=2)
    try:
        with pytest.raises(RuntimeError, match="boom"):
            omission_compact(circuit, sequence, faults, oracle=oracle)
        assert oracle.dropped_at_boom, \
            "the failure should have happened while faults were dropped"
        assert oracle.session.dropped_mask == 0, \
            "omission leaked dropped faults on the exception path"
    finally:
        oracle.close()


# -- cold vs warm flows -------------------------------------------------------


def _flow_bits(flow):
    """Everything observable about a generation flow, in order."""
    return {
        "faults": [str(f) for f in flow.faults],
        "untestable": sorted(str(f) for f in flow.untestable),
        "aborted": [str(f) for f in flow.atpg.base.aborted],
        "raw": list(flow.raw.vectors),
        "detection": [(str(f), t)
                      for f, t in flow.atpg.detection_time.items()],
        "funct_scan_out": [str(f) for f in flow.atpg.funct_scan_out],
        "funct_justify": [str(f) for f in flow.atpg.funct_justify],
        "restored": list(flow.restored.sequence.vectors),
        "kept": list(flow.restored.kept_indices),
        "restored_detected": [str(f) for f in flow.restored.detected],
        "omitted": list(flow.omitted.sequence.vectors),
        "omitted_count": flow.omitted.omitted_count,
        "omission_detected": [str(f) for f in flow.omitted.detected],
        "extra": [str(f) for f in flow.omitted.extra_detected],
    }


def _counters(telemetry):
    return telemetry.metrics.snapshot()["counters"]


def _run_flow(circuit, cfg):
    with obs.session() as telemetry:
        flow = generation_flow(circuit, cfg)
    return _flow_bits(flow), _counters(telemetry)


def _assert_warm_equals_cold(circuit, cold_cfg, warm_cfg):
    cold, cold_counters = _run_flow(circuit, cold_cfg)
    assert any(k.startswith("atpg.") for k in cold_counters), \
        "cold run should exercise the ATPG engine"
    warm, warm_counters = _run_flow(circuit, warm_cfg)
    assert warm == cold
    # The acceptance bar: a warm restart does *zero* engine work.
    engine_work = sorted(
        k for k in warm_counters
        if k.startswith("atpg.") or k.startswith("faultsim.")
    )
    assert not engine_work, f"warm run did engine work: {engine_work}"
    for stage in ("collapse", "atpg", "compact", "detection"):
        assert warm_counters.get(f"cache.hit.{stage}", 0) >= 1, stage


def test_cold_and_warm_generation_identical_s27(tmp_path):
    cfg = FlowConfig(seed=0, cache_dir=str(tmp_path / "cache"))
    _assert_warm_equals_cold(s27(), cfg, cfg)


def test_cold_and_warm_generation_identical_synth_across_jobs(
        tmp_path, small_synth):
    """Warm at ``jobs=2`` replays a cold ``jobs=1`` run bit-identically:
    flows ignore ``jobs``, and it is excluded from every stage
    fingerprint by construction."""
    cache = str(tmp_path / "cache")
    cold = FlowConfig(seed=3, cache_dir=cache, jobs=1)
    warm = FlowConfig(seed=3, cache_dir=cache, jobs=2)
    _assert_warm_equals_cold(small_synth, cold, warm)


def test_corrupted_entry_rederives_end_to_end(tmp_path, small_synth):
    """A damaged cache costs a re-derivation, never a wrong answer."""
    cache = tmp_path / "cache"
    cfg = FlowConfig(seed=3, cache_dir=str(cache))
    cold, _ = _run_flow(small_synth, cfg)
    for entry in ResultStore(cache)._entries():
        entry.write_bytes(b"{ truncated garbage")
        break  # damage exactly one entry
    with obs.session() as telemetry:
        again = _flow_bits(generation_flow(small_synth, cfg))
    assert again == cold
    counters = _counters(telemetry)
    assert counters.get("cache.miss", 0) >= 1
    assert counters.get("cache.stores", 0) >= 1  # the entry was rebuilt


def test_env_var_turns_caching_on(tmp_path, monkeypatch):
    from repro.cache import CACHE_ENV

    monkeypatch.setenv(CACHE_ENV, str(tmp_path / "envcache"))
    cfg = FlowConfig(seed=0)  # no explicit cache_dir
    assert cfg.effective_cache_dir() == tmp_path / "envcache"
    cold, cold_counters = _run_flow(s27(), cfg)
    assert cold_counters.get("cache.stores", 0) >= 1
    warm, warm_counters = _run_flow(s27(), cfg)
    assert warm == cold
    assert warm_counters.get("cache.hit", 0) >= 3
