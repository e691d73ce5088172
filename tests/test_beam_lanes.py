"""Candidate-parallel beam search: the packed lane step, its per-candidate
reference adapter, and the search decisions they drive."""

import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.atpg import SeqATPGConfig, SequentialATPG
from repro.atpg import seq_atpg
from repro.atpg.seq_atpg import SteppedLanes, lane_view
from repro.circuit import insert_scan, random_circuit
from repro.circuit.gates import ONE, X, ZERO
from repro.core.scan_aware import ScanAwareATPG
from repro.experiments.suite import build_circuit
from repro.faults import collapse_faults
from repro.faults.model import branch_fault, stem_fault
from repro.sim import PackedFaultSimulator, make_backend
from repro.sim.backend import vector_available


# -- lane step vs. the per-candidate adapter -------------------------------------------


def _fault_pool(circuit):
    """Faults on every kind of injection site: PI stems, gate-input
    branches, gate-output stems, flip-flop Q stems and D branches, and
    primary-output branches."""
    pool = []
    for value in (0, 1):
        pool += [stem_fault(net, value) for net in circuit.inputs]
        for gate in circuit.gates:
            pool.append(stem_fault(gate.output, value))
            pool += [branch_fault(net, gate.output, pin, value)
                     for pin, net in enumerate(gate.inputs)]
        for flop in circuit.flops:
            pool.append(stem_fault(flop.q, value))
            pool.append(branch_fault(flop.d, flop.q, 0, value))
        pool += [branch_fault(po, f"PO:{po}", 0, value)
                 for po in circuit.outputs]
    return pool


@settings(max_examples=40, deadline=None)
@given(
    shape=st.tuples(
        st.integers(min_value=2, max_value=5),       # inputs
        st.integers(min_value=1, max_value=5),       # flops
        st.integers(min_value=6, max_value=40),      # gates
        st.integers(min_value=0, max_value=10_000),  # circuit seed
    ),
    scan=st.booleans(),
    lanes=st.sampled_from([1, 3, 8]),
    multi=st.booleans(),
    draw_seed=st.integers(0, 10_000),
)
def test_lane_step_matches_stepped_adapter(shape, scan, lanes, multi,
                                           draw_seed):
    inputs, flops, gates, seed = shape
    circuit = random_circuit("lanes", inputs, flops, max(gates, flops),
                             seed=seed)
    if scan:
        circuit = insert_scan(circuit).circuit
    rng = random.Random(draw_seed)
    pool = _fault_pool(circuit)
    faults = rng.sample(pool, min(len(pool), 6)) if multi else [rng.choice(pool)]
    packed = PackedFaultSimulator(circuit, faults)
    reference = SteppedLanes(PackedFaultSimulator(circuit, faults))
    # A distinct three-valued state per machine, so replication across
    # lanes is checked on states where the machines disagree.
    states = [tuple(rng.choice((ZERO, ONE, X)) for _ in circuit.flops)
              for _ in range(packed.num_machines)]
    for sim in (packed, reference.sim):
        sim.load_machine_states(states)
    before = packed.save_state()
    vectors = [tuple(rng.choice((ZERO, ONE, ONE, ZERO, X))
                     for _ in circuit.inputs) for _ in range(lanes)]
    net = rng.choice(circuit.nets())

    got = packed.lane_step(vectors, net)
    assert got == reference.lane_step(vectors, net)
    assert packed.save_state() == before  # nothing committed yet
    for lane in range(lanes):
        packed.select_lane(lane)
        reference.select_lane(lane)
        assert packed.save_state() == reference.sim.save_state()


def test_lane_step_equals_step(s27_scan):
    """Each lane's outcome and committed state is what ``step`` alone
    gives for that lane's vector."""
    circuit = s27_scan.circuit
    faults = collapse_faults(circuit)
    sim = PackedFaultSimulator(circuit, faults)
    rng = random.Random(5)
    for _ in range(6):
        sim.step(tuple(rng.randint(0, 1) for _ in circuit.inputs))
    start = sim.save_state()
    vectors = [tuple(rng.randint(0, 1) for _ in circuit.inputs)
               for _ in range(5)]
    outcomes = sim.lane_step(vectors, circuit.outputs[0])
    for lane, vector in enumerate(vectors):
        single = PackedFaultSimulator(circuit, faults)
        single.restore_state(start)
        detected = single.step(vector)
        assert outcomes[lane] == (
            detected,
            sum(1 for mask in single.ff_effect_masks() if mask),
            single.good_net_value(circuit.outputs[0]),
        )
        sim.select_lane(lane)
        assert sim.save_state() == single.save_state()


def test_lane_view_picks_native_or_adapter(s27_scan):
    circuit = s27_scan.circuit
    faults = collapse_faults(circuit)[:1]
    packed = PackedFaultSimulator(circuit, faults)
    assert lane_view(packed) is packed
    if not vector_available():
        pytest.skip("vector backend unavailable")
    vector = make_backend(circuit, faults, "vector")
    wrapped = lane_view(vector)
    assert isinstance(wrapped, SteppedLanes) and wrapped.sim is vector


# -- beam decisions -------------------------------------------------------------------


class _DetectAt:
    """Lane stand-in: no lane detects until step ``step``, where only
    lane ``lane`` does; records the candidates it was handed."""

    def __init__(self, step, lane):
        self.step, self.lane = step, lane
        self.batches = []

    def lane_step(self, vectors, net):
        hit = len(self.batches) == self.step
        self.batches.append(list(vectors))
        return [(0b10 if hit and j == self.lane else 0, 0, X)
                for j in range(len(vectors))]

    def select_lane(self, lane):
        assert lane == 0  # every score ties at 0: the first lane wins


@pytest.mark.parametrize("step,lane", [(0, 3), (2, 5), (1, 7)])
def test_detecting_lane_rewinds_rng(s27_scan, step, lane):
    """When lane j > 0 detects, the RNG ends where drawing the step's
    first j + 1 candidates one at a time would leave it, and j
    backtracks are counted for that step."""
    circuit = s27_scan.circuit
    fault = collapse_faults(circuit)[0]
    config = SeqATPGConfig(seed=11, candidates_per_step=8)
    engine = SequentialATPG(circuit, [fault], config=config)
    mini = PackedFaultSimulator(circuit, [fault])
    start = (tuple([X] * len(circuit.flops)),) * 2
    lanes = _DetectAt(step, lane)
    with obs.session() as telemetry:
        found, trace = engine._beam_search(fault, mini, lanes, *start)
    assert trace is None
    assert found == [batch[0] for batch in lanes.batches[:-1]] \
        + [lanes.batches[-1][lane]]

    reference = SequentialATPG(circuit, [fault], config=config)
    previous = None
    for _ in range(step):
        batch = [reference._candidate_vector(previous, reference._rng)
                 for _ in range(8)]
        previous = batch[0]
    for _ in range(lane + 1):
        reference._candidate_vector(previous, reference._rng)
    assert engine._rng.getstate() == reference._rng.getstate()
    counters = telemetry.metrics
    assert counters.counter("atpg.backtracks").value == 7 * step + lane
    assert counters.counter("atpg.seq.lane_steps").value == step + 1


def _decision_digest(result):
    base = result.base
    payload = {
        "sequence": [list(v) for v in result.sequence.vectors],
        "detection_time": [[str(f), t] for f, t in base.detection_time.items()],
        "aborted": [str(f) for f in base.aborted],
        "hook_detected": [str(f) for f in base.hook_detected],
    }
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def _generate(scan_circuit, faults, config, **kwargs):
    with obs.session() as telemetry:
        result = ScanAwareATPG(scan_circuit, faults, config=config,
                               **kwargs).generate()
    return result, telemetry.metrics


#: (digest of sequence, detection_time items in order, aborted and
#: hook_detected; atpg.backtracks) of ScanAwareATPG at defaults, with
#: verdict-first triage skipping the search of proven-untestable targets.
#: The lanes reproduce what a one-candidate-at-a-time search decides.
PINNED = {
    ("s208", 0): ("27910da2f6a51be2984cdb0c1317dfa2"
                  "9d54b60cf0042cb083bd42f6ab3eefef", 1141),
    ("s208", 1): ("636f45c1b1ceb7a177dab7abb01c6384"
                  "5a8a9a6444c5ab3d09ac612eed505990", 1405),
    ("s298", 0): ("8dfbc3c2453d9e7ec09ff763244b42dd"
                  "2b84e6be5093edfceacd51dba42daf80", 2074),
    ("s298", 1): ("24723789f37e9533af050695cd4d28c4"
                  "a96acb07d20ad2a9d74f70a8bdeabaea", 2485),
    ("s386", 0): ("9557b0e28ffd19b21fa3f6f77a32b1b5"
                  "26b4ef04d875ed27db3f97de184cc60a", 2210),
    ("s386", 1): ("8fb93a943afc2a8ec1a7159264e0ad60"
                  "20382db97bff6aaf8664da7ca0ccb21e", 1509),
}


@pytest.mark.parametrize("name,seed", sorted(PINNED))
def test_scan_aware_decisions_pinned(name, seed):
    scan_circuit = insert_scan(build_circuit(name))
    faults = collapse_faults(scan_circuit.circuit)
    result, metrics = _generate(scan_circuit, faults,
                                SeqATPGConfig(seed=seed))
    digest, backtracks = PINNED[(name, seed)]
    assert _decision_digest(result) == digest
    assert metrics.counter("atpg.backtracks").value == backtracks


def test_adapter_gives_the_same_search(monkeypatch, s27_scan):
    """Forcing every search sim through the adapter changes no result
    bit and counts the same lane steps and backtracks."""
    circuit = s27_scan.circuit
    faults = collapse_faults(circuit)
    config = SeqATPGConfig(seed=3, initial_random_vectors=8)

    def run():
        with obs.session() as telemetry:
            result = SequentialATPG(circuit, faults, config=config).generate()
        counters = {name: telemetry.metrics.counter(name).value
                    for name in ("atpg.seq.lane_steps", "atpg.backtracks")}
        return result, counters

    native, native_counts = run()
    monkeypatch.setattr(seq_atpg, "lane_view", SteppedLanes)
    stepped, stepped_counts = run()
    assert native_counts["atpg.seq.lane_steps"] > 0
    assert native_counts == stepped_counts
    assert native.sequence == stepped.sequence
    assert list(native.detection_time.items()) \
        == list(stepped.detection_time.items())
    assert native.aborted == stepped.aborted
