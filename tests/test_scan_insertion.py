"""Scan-chain insertion: structure, shift behaviour, functional equivalence."""

import pytest

from repro.circuit import Circuit, FlipFlop, Gate, insert_scan, s27, toy_seq
from repro.circuit.gates import ONE, X, ZERO
from repro.sim import LogicSimulator


def scan_vec(sc, base, sel, sin):
    """Vector for C_scan from a base vector over original inputs."""
    circuit = sc.circuit
    idx = {n: i for i, n in enumerate(circuit.inputs)}
    vector = [ZERO] * len(circuit.inputs)
    for name, value in zip(sc.original_inputs, base):
        vector[idx[name]] = value
    vector[idx[sc.scan_select]] = sel
    for chain in sc.chains:
        vector[idx[chain.scan_in]] = sin
    return tuple(vector)


class TestStructure:
    def test_extra_lines(self, s27_scan):
        c = s27_scan.circuit
        assert "scan_sel" in c.inputs
        assert "scan_inp" in c.inputs
        assert c.num_inputs == 6
        # scan_out is the last flip-flop of the chain.
        assert s27_scan.chains[0].scan_out in c.outputs

    def test_chain_follows_description_order(self, s27_scan):
        assert s27_scan.chains[0].order == ("G5", "G6", "G7")

    def test_chain_metadata(self, s27_scan):
        chain = s27_scan.chains[0]
        assert chain.length == 3
        assert chain.position("G5") == 0
        assert chain.shifts_to_observe("G5") == 3
        assert chain.shifts_to_observe("G7") == 1

    def test_chain_of(self, s27_scan):
        assert s27_scan.chain_of("G6") is s27_scan.chains[0]
        with pytest.raises(KeyError):
            s27_scan.chain_of("nope")

    def test_mux_expansion_adds_gates(self, s27_circuit, s27_scan):
        # 4 gates per flip-flop (NOT, AND, AND, OR).
        assert s27_scan.circuit.num_gates == s27_circuit.num_gates + 4 * 3

    def test_combinational_circuit_rejected(self, toy_comb_circuit):
        with pytest.raises(ValueError):
            insert_scan(toy_comb_circuit)

    def test_bad_num_chains(self, s27_circuit):
        with pytest.raises(ValueError):
            insert_scan(s27_circuit, num_chains=0)
        with pytest.raises(ValueError):
            insert_scan(s27_circuit, num_chains=4)

    def test_bad_chain_order(self, s27_circuit):
        with pytest.raises(ValueError):
            insert_scan(s27_circuit, chain_order=["G5", "G6"])

    def test_custom_chain_order(self, s27_circuit):
        sc = insert_scan(s27_circuit, chain_order=["G7", "G5", "G6"])
        assert sc.chains[0].order == ("G7", "G5", "G6")

    def test_name_collision_resolved(self):
        """A circuit already using 'scan_sel' still scan-inserts cleanly."""
        c = Circuit(
            "clash", ["scan_sel"], ["q"],
            [Gate("d", "NOT", ("scan_sel",))],
            [FlipFlop("q", "d")],
        )
        sc = insert_scan(c)
        assert sc.scan_select != "scan_sel"
        assert sc.scan_select in sc.circuit.inputs


class TestShiftBehaviour:
    def test_scan_in_loads_state(self, s27_scan):
        """Shifting (1,1,0) through scan_inp leaves state (G5,G6,G7)=(0,1,1),
        matching the paper's Table 3 example."""
        sim = LogicSimulator(s27_scan.circuit)
        for bit in (ONE, ONE, ZERO):
            sim.step(scan_vec(s27_scan, (ZERO,) * 4, ONE, bit))
        assert sim.state[:3] == (ZERO, ONE, ONE)  # flops in q order G5,G6,G7

    def test_scan_out_observes_state(self, s27_scan):
        """The last chain element appears on scan_out each shift."""
        circuit = s27_scan.circuit
        sim = LogicSimulator(circuit)
        po_idx = circuit.outputs.index(s27_scan.chains[0].scan_out)
        # Load a known state, then observe while shifting zeros in.
        for bit in (ONE, ZERO, ONE):
            sim.step(scan_vec(s27_scan, (ZERO,) * 4, ONE, bit))
        # state is (G5,G6,G7) = (1,0,1); G7 drives scan_out directly.
        observed = []
        for _ in range(3):
            outs = sim.step(scan_vec(s27_scan, (ZERO,) * 4, ONE, ZERO))
            observed.append(outs[po_idx])
        assert observed == [ONE, ZERO, ONE]

    def test_functional_mode_matches_original(self, s27_circuit, s27_scan):
        """With scan_sel=0 and identical state, C_scan behaves as C."""
        import random

        rng = random.Random(5)
        orig = LogicSimulator(s27_circuit)
        scan = LogicSimulator(s27_scan.circuit)
        state = (ONE, ZERO, ONE)
        orig.reset(state)
        scan.reset(state)
        for _ in range(50):
            base = tuple(rng.randint(0, 1) for _ in range(4))
            orig_out = orig.step(base)
            scan_out = scan.step(scan_vec(s27_scan, base, ZERO, ZERO))
            assert scan_out[0] == orig_out[0]
            assert scan.state == orig.state


class TestMultiChain:
    def test_balanced_split(self, medium_synth):
        sc = insert_scan(medium_synth, num_chains=3)
        lengths = [c.length for c in sc.chains]
        assert sum(lengths) == medium_synth.num_state_vars
        assert max(lengths) - min(lengths) <= 1

    def test_distinct_scan_lines(self, medium_synth):
        sc = insert_scan(medium_synth, num_chains=2)
        ins = {c.scan_in for c in sc.chains}
        assert len(ins) == 2
        assert all(i in sc.circuit.inputs for i in ins)

    def test_single_select_shared(self, medium_synth):
        sc = insert_scan(medium_synth, num_chains=2)
        sel_like = [n for n in sc.circuit.inputs if n.startswith("scan_sel")]
        assert len(sel_like) == 1

    def test_max_chain_length(self, medium_synth):
        sc = insert_scan(medium_synth, num_chains=3)
        assert sc.max_chain_length == max(c.length for c in sc.chains)


class TestScanVectors:
    def test_shifts_to_observe(self, medium_synth):
        sc = insert_scan(medium_synth, num_chains=3)
        for chain in sc.chains:
            for position, q in enumerate(chain.order):
                assert sc.shifts_to_observe(q) == chain.length - position
        with pytest.raises(KeyError):
            sc.shifts_to_observe("nope")

    def test_scan_in_loads_random_states_on_unequal_chains(self, medium_synth):
        """From the all-X state, the shift-in of ``state`` ends in exactly
        ``state``, with chains of lengths 4, 3 and 3."""
        import random

        sc = insert_scan(medium_synth, num_chains=3)
        assert sorted(c.length for c in sc.chains) == [3, 3, 4]
        rng = random.Random(11)
        sim = LogicSimulator(sc.circuit)
        for _ in range(20):
            state = tuple(rng.choice((ZERO, ONE, X))
                          for _ in sc.circuit.flops)
            vectors = sc.scan_in_vectors(state)
            assert len(vectors) == sc.max_chain_length
            sim.reset()
            for vector in vectors:
                sim.step(vector)
            assert sim.state == state


class TestMuxEquivalence:
    def test_expanded_and_primitive_agree(self, toy_seq_circuit):
        """The four-gate scan mux behaves cycle by cycle like a primitive
        2:1 mux in front of every flip-flop: ``scan_sel = 1`` shifts the
        chain, ``scan_sel = 0`` takes the circuit's next state."""
        import random

        rng = random.Random(7)
        sc = insert_scan(toy_seq_circuit)
        order = sc.chains[0].order
        flops = [f.q for f in toy_seq_circuit.flops]
        scan = LogicSimulator(sc.circuit)
        model = LogicSimulator(toy_seq_circuit)
        for _ in range(80):
            sel = rng.randint(0, 1)
            sin = rng.randint(0, 1)
            base = tuple(rng.randint(0, 1) for _ in range(2))
            before = dict(zip(flops, model.state))
            out = scan.step(scan_vec(sc, base, sel, sin))
            model_out = model.step(base)
            if sel == ONE:
                shifted = dict(zip(order, [sin] + [before[q] for q in order[:-1]]))
                model.reset(tuple(shifted[q] for q in flops))
            assert out[:len(model_out)] == model_out
            assert scan.state == model.state
