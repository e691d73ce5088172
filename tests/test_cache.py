"""The content-addressed result store and the warm-restart guarantees.

Covers the PR's tentpole and its regression satellites:

* fingerprint canonicalization (name-insensitive, gate-order invariant,
  IO-order sensitive) and the identity-keyed memo;
* store round-trips, atomicity-adjacent corruption tolerance (truncated
  / garbage / wrong-schema / relocated entries are all clean misses that
  re-derive), stats and clear, which touch only the store's own layout;
* the ``compiled_topology`` stale-cache fix (in-place netlist mutation
  must recompile);
* omission's drop accounting: drops never leak, even when a query blows
  up mid-sweep;
* the headline property: cold and warm flows are bit-identical (s27 and
  a synthetic circuit, cold ``jobs=1`` and warm ``jobs=2``, generation
  and translation), a cold run stores exactly one ``flow`` entry, and
  the warm run reads that entry and does zero ATPG engine work and zero
  fault-sim cycles;
* the fallbacks: a missing, damaged or version-bumped ``flow`` entry
  re-derives with engine work, bit-identically, and is written again
  byte for byte.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.atpg import SeqATPGConfig
from repro.cache import (
    ResultStore,
    circuit_fingerprint,
    config_fingerprint,
)
from repro.cache import stages as stage_versions
from repro.circuit import insert_scan, s27
from repro.circuit.netlist import Circuit, Gate
from repro.compaction import CompactionOracle, omission_compact
from repro.core import FlowConfig, generation_flow, translation_flow
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


# -- store round-trips and corruption tolerance -------------------------------


def _addressed(tmp_path):
    store = ResultStore(tmp_path / "cache")
    cfp = "ab" + "0" * 62
    kfp = config_fingerprint("collapse", probe=1)
    return store, cfp, kfp


def test_store_round_trip_and_stats(tmp_path):
    store, cfp, kfp = _addressed(tmp_path)
    payload = {"faults": [["gate_output", "G1", None, None, 1]]}
    assert store.get(cfp, kfp) is None
    store.put(cfp, kfp, payload)
    assert store.get(cfp, kfp) == payload
    stats = store.stats()
    assert stats.entries == 1
    assert stats.total_bytes > 0
    assert store.clear() == 1
    assert store.get(cfp, kfp) is None
    assert store.stats().entries == 0


@pytest.mark.parametrize("damage", ["truncate", "garbage", "schema", "swap"])
def test_damaged_entries_miss_then_rederive(tmp_path, damage):
    store, cfp, kfp = _addressed(tmp_path)
    store.put(cfp, kfp, {"v": 1})
    path = store._entry_path(cfp, kfp)
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
        path.rename(store._entry_path(cfp, other))
        kfp = other
    assert store.get(cfp, kfp) is None  # miss, not a crash
    store.put(cfp, kfp, {"v": 2})  # re-derivation repairs it
    assert store.get(cfp, kfp) == {"v": 2}


@pytest.mark.parametrize("was_enabled", [True, False])
def test_decode_runs_with_cyclic_gc_paused(tmp_path, was_enabled):
    """An entry is decoded with the cyclic collector paused, and the
    read leaves the collector as it found it, also when the decoder
    rejects the payload."""
    import gc

    store, cfp, kfp = _addressed(tmp_path)
    store.put(cfp, kfp, {"v": 1})
    seen = []

    def decode(payload):
        seen.append(gc.isenabled())
        return payload["v"]

    def reject(payload):
        seen.append(gc.isenabled())
        raise ValueError("not a flow payload")

    enabled = gc.isenabled()
    try:
        if not was_enabled:
            gc.disable()
        assert store.get(cfp, kfp, decode) == 1
        assert gc.isenabled() is was_enabled
        assert store.get(cfp, kfp, reject) is None
        assert gc.isenabled() is was_enabled
    finally:
        if enabled:
            gc.enable()
    assert seen == [False, False]


def test_stats_and_clear_skip_tenant_overlays(tmp_path):
    """Older serve daemons kept per-tenant overlays under
    ``<root>/tenants/<tenant>/``; a leftover one is outside the store's
    layout, so the store neither counts, deletes nor reads it."""
    base, cfp, kfp = _addressed(tmp_path)
    base.put(cfp, kfp, {"v": 1})
    overlay = ResultStore(base.root / "tenants" / "acme")
    overlay.put(cfp, "e" * 64, {"v": 2})
    (leftover,) = overlay.root.glob("*/*/flow-*.json")
    assert base.stats().entries == 1
    assert base.get(cfp, "e" * 64) is None
    assert base.clear() == 1
    assert base.stats().entries == 0
    assert leftover.exists()


def test_cache_clear_removes_serve_entries_of_older_daemons(tmp_path,
                                                             capsys):
    """Older serve daemons wrote a ``serve-*`` entry next to each
    ``flow`` entry; ``cache clear`` removes it with the rest."""
    from repro.cli import main

    store, cfp, kfp = _addressed(tmp_path)
    store.put(cfp, kfp, {"v": 1})
    entry = store._entry_path(cfp, kfp)
    entry.with_name(f"serve-{kfp[:24]}.json").write_text("{}")
    assert main(["cache", "clear", str(store.root)]) == 0
    assert "cleared 2 cache entries" in capsys.readouterr().out
    assert not entry.parent.exists()


def test_cache_stats_cli_prints_root_entries_and_bytes(tmp_path, capsys):
    """``cache stats`` reports the root, entry count and byte total;
    lookups leave no hit rate behind to report."""
    from repro.cli import main

    store, cfp, kfp = _addressed(tmp_path)
    store.put(cfp, kfp, {"v": 1})
    store.get(cfp, kfp)
    store.get(cfp, "e" * 64)
    assert main(["cache", "stats", str(store.root)]) == 0
    out = capsys.readouterr().out
    size = store._entry_path(cfp, kfp).stat().st_size
    assert out.splitlines() == [f"cache root: {store.root}",
                                " entries: 1", f"   bytes: {size}"]


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
        "untargeted": [str(f) for f in flow.atpg.base.untargeted],
        "hook_detected": [str(f) for f in flow.atpg.base.hook_detected],
        "raw": list(flow.raw.vectors),
        "detection": [(str(f), t)
                      for f, t in flow.atpg.detection_time.items()],
        "funct_scan_out": [str(f) for f in flow.atpg.funct_scan_out],
        "funct_justify": [str(f) for f in flow.atpg.funct_justify],
        **_compaction_bits(flow),
    }


def _translation_bits(flow):
    """Everything observable about a translation flow, in order."""
    baseline = flow.baseline
    return {
        "faults": [str(f) for f in flow.faults],
        "tests": [(t.scan_in, t.vectors) for t in baseline.test_set.tests],
        "baseline_detected": [(str(f), t)
                              for f, t in baseline.detected_by.items()],
        "baseline_untestable": [str(f) for f in baseline.untestable],
        "baseline_aborted": [str(f) for f in baseline.aborted],
        "translated": list(flow.translated.vectors),
        "scan_sel": flow.translated.scan_sel,
        **_compaction_bits(flow),
    }


def _compaction_bits(flow):
    return {
        "restored": list(flow.restored.sequence.vectors),
        "kept": list(flow.restored.kept_indices),
        "restored_detected": [str(f) for f in flow.restored.detected],
        "never_detected": [str(f) for f in flow.restored.never_detected],
        "omitted": list(flow.omitted.sequence.vectors),
        "omitted_count": flow.omitted.omitted_count,
        "omission_detected": [str(f) for f in flow.omitted.detected],
        "extra": [str(f) for f in flow.omitted.extra_detected],
    }


def _counters(telemetry):
    return telemetry.metrics.snapshot()["counters"]


def _run_flow(circuit, cfg, flow=generation_flow):
    bits = _flow_bits if flow is generation_flow else _translation_bits
    with obs.session() as telemetry:
        result = flow(circuit, cfg)
    return bits(result), _counters(telemetry)


def _engine_work(counters):
    return sorted(k for k in counters
                  if k.startswith("atpg.") or k.startswith("faultsim."))


def _flow_entries(cache):
    return sorted(cache.glob("*/*/flow-*.json"))


def _assert_warm_equals_cold(circuit, cold_cfg, warm_cfg,
                             flow=generation_flow):
    cold, cold_counters = _run_flow(circuit, cold_cfg, flow)
    assert _engine_work(cold_counters), "cold run should exercise the engines"
    assert cold_counters.get("cache.miss") == 1
    warm, warm_counters = _run_flow(circuit, warm_cfg, flow)
    assert warm == cold
    # The acceptance bar: a warm restart does *zero* engine work and
    # reads exactly one store entry, the whole-flow result.
    assert not _engine_work(warm_counters), \
        f"warm run did engine work: {_engine_work(warm_counters)}"
    assert warm_counters.get("cache.hit") == 1
    assert not warm_counters.get("cache.miss")


def test_cold_and_warm_generation_identical_s27(tmp_path):
    cfg = FlowConfig(seed=0, cache_dir=str(tmp_path / "cache"))
    _assert_warm_equals_cold(s27(), cfg, cfg)
    # A one-target cap leaves untargeted faults, which round-trip too.
    capped = cfg.replace(atpg=SeqATPGConfig(seed=0, max_targeted_faults=1))
    _assert_warm_equals_cold(s27(), capped, capped)
    assert _run_flow(s27(), capped)[0]["untargeted"]


def test_cold_and_warm_generation_identical_synth_across_jobs(
        tmp_path, small_synth):
    """Warm at ``jobs=2`` replays a cold ``jobs=1`` run bit-identically:
    flows ignore ``jobs``, and it is excluded from every stage
    fingerprint by construction."""
    cache = str(tmp_path / "cache")
    cold = FlowConfig(seed=3, cache_dir=cache, jobs=1)
    warm = FlowConfig(seed=3, cache_dir=cache, jobs=2)
    _assert_warm_equals_cold(small_synth, cold, warm)


@pytest.mark.parametrize("circuit", ["s27", "small_synth"])
def test_cold_and_warm_translation_identical(tmp_path, request, circuit):
    circuit = s27() if circuit == "s27" else \
        request.getfixturevalue("small_synth")
    cfg = FlowConfig(seed=2, cache_dir=str(tmp_path / "cache"))
    _assert_warm_equals_cold(circuit, cfg, cfg, flow=translation_flow)


@pytest.mark.parametrize("flow", [generation_flow, translation_flow],
                         ids=["generation", "translation"])
def test_cold_run_stores_one_entry(tmp_path, small_synth, flow):
    """A cold flow writes its ``flow`` entry and nothing else."""
    cache = tmp_path / "cache"
    cfg = FlowConfig(seed=3, cache_dir=str(cache))
    _, counters = _run_flow(small_synth, cfg, flow)
    assert counters.get("cache.stores") == 1
    files = [p for p in cache.rglob("*") if p.is_file()]
    assert len(files) == 1
    assert files == _flow_entries(cache)


def _file_snapshot(root):
    return sorted((str(p.relative_to(root)), p.stat().st_size,
                   p.stat().st_mtime_ns)
                  for p in root.rglob("*") if p.is_file())


def test_warm_lookups_write_nothing(tmp_path):
    """Only a finishing flow's ``put`` writes the store: three warm
    replays leave every file under the root as the cold run left it."""
    cache = tmp_path / "cache"
    cfg = FlowConfig(seed=1, cache_dir=str(cache))
    cold, _ = _run_flow(s27(), cfg)
    snapshot = _file_snapshot(cache)
    assert snapshot
    for _ in range(3):
        warm, counters = _run_flow(s27(), cfg)
        assert warm == cold
        assert counters.get("cache.hit") == 1
        assert not counters.get("cache.stores")
        assert _file_snapshot(cache) == snapshot


def _assert_rederives(circuit, cfg, cold):
    """A run whose ``flow`` entry misses runs the engines, matches the
    cold bits and stores the entry again."""
    warm, counters = _run_flow(circuit, cfg)
    assert warm == cold
    assert _engine_work(counters)
    assert counters.get("cache.miss") == 1
    assert not counters.get("cache.hit")
    assert counters.get("cache.stores") == 1


def test_missing_flow_entry_falls_back_to_stages(tmp_path, small_synth):
    """Without its ``flow`` entry a run re-derives the result with the
    engines and writes the entry again, byte for byte."""
    cache = tmp_path / "cache"
    cfg = FlowConfig(seed=3, cache_dir=str(cache))
    cold, _ = _run_flow(small_synth, cfg)
    (entry,) = _flow_entries(cache)
    before = entry.read_bytes()
    entry.unlink()
    _assert_rederives(small_synth, cfg, cold)
    assert _flow_entries(cache) == [entry]
    assert entry.read_bytes() == before
    again, counters = _run_flow(small_synth, cfg)
    assert again == cold
    assert counters.get("cache.hit") == 1


def test_bumped_atpg_version_misses_flow_and_atpg(tmp_path, small_synth,
                                                  monkeypatch):
    """A store filled before an engine change must not replay the old
    result: bumping ``FLOW_VERSION`` turns the warm ``flow`` hit into a
    miss that re-derives and writes a new entry with the same payload."""
    cache = tmp_path / "cache"
    cfg = FlowConfig(seed=3, cache_dir=str(cache))
    cold, _ = _run_flow(small_synth, cfg)
    _, counters = _run_flow(small_synth, cfg)
    assert counters.get("cache.hit") == 1
    (old,) = _flow_entries(cache)
    monkeypatch.setattr(stage_versions, "FLOW_VERSION",
                        stage_versions.FLOW_VERSION + 1)
    _assert_rederives(small_synth, cfg, cold)
    (new,) = set(_flow_entries(cache)) - {old}
    assert json.loads(new.read_text())["payload"] == \
        json.loads(old.read_text())["payload"]


def _damage_flow_entry(path, damage):
    if damage == "truncate":
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        return
    envelope = json.loads(path.read_text())
    payload = envelope["payload"]
    universe = len(payload["faults"])
    if damage == "index":
        payload["compact"]["omitted"]["detected"][0] = universe
    else:  # a negative index must not wrap around to the universe's end
        payload["atpg"]["aborted"].append(-1)
    path.write_text(json.dumps(envelope))


@pytest.mark.parametrize("damage", ["truncate", "index", "negative"])
def test_damaged_flow_entry_falls_back_to_stages(tmp_path, small_synth,
                                                 damage):
    """A damaged ``flow`` entry is a miss that re-derives the result and
    rewrites the entry byte for byte."""
    cache = tmp_path / "cache"
    cfg = FlowConfig(seed=3, cache_dir=str(cache))
    cold, _ = _run_flow(small_synth, cfg)
    (entry,) = _flow_entries(cache)
    before = entry.read_bytes()
    _damage_flow_entry(entry, damage)
    _assert_rederives(small_synth, cfg, cold)
    assert entry.read_bytes() == before


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
    assert warm_counters.get("cache.hit") == 1
