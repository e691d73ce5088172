"""Shared helpers for the test suite."""

import random


def random_vectors(circuit, count, seed=0):
    """Deterministic random binary vectors aligned with circuit.inputs."""
    gen = random.Random(seed)
    return [
        tuple(gen.randint(0, 1) for _ in circuit.inputs) for _ in range(count)
    ]


# -- naive references for the linear-time fault bookkeeping -------------------
#
# The loops below are the straightforward versions the package replaced
# with integer ids and bit-string scans; the parity tests check the
# package against them.


def reference_fault_positions(mask):
    """0-based fault positions of a machine mask, peeled one set bit at
    a time."""
    positions = []
    mask &= ~1
    while mask:
        low = mask & -mask
        positions.append(low.bit_length() - 2)
        mask ^= low
    return positions


def reference_mask_of(positions):
    """Mask of fault ``positions`` (bit ``p + 1`` each), one OR per
    position."""
    mask = 0
    for position in positions:
        mask |= 1 << (position + 1)
    return mask


def reference_to_external(mask, live_positions):
    """Internal (packing ``live_positions``) mask -> external mask."""
    out = 0
    for position in reference_fault_positions(mask):
        out |= 1 << (live_positions[position] + 1)
    return out


def reference_to_internal(mask, live_positions, num_faults):
    """External mask of packed faults -> internal mask of packing
    ``live_positions``."""
    bit_of = [0] * num_faults
    for j, position in enumerate(live_positions):
        bit_of[position] = j + 1
    out = 0
    for position in reference_fault_positions(mask):
        out |= 1 << bit_of[position]
    return out


class ReferenceUnionFind:
    """Union-find keyed by :class:`~repro.faults.model.Fault` objects,
    each root the class member ranked first by ``rank``."""

    def __init__(self, rank):
        self._parent = {}
        self._rank = rank

    def find(self, fault):
        parent = self._parent.setdefault(fault, fault)
        if parent == fault:
            return fault
        root = self.find(parent)
        self._parent[fault] = root
        return root

    def union(self, a, b):
        root_a, root_b = self.find(a), self.find(b)
        if root_a != root_b:
            if self._rank(root_b) < self._rank(root_a):
                root_a, root_b = root_b, root_a
            self._parent[root_b] = root_a


def reference_equivalence_classes(circuit, faults=None):
    """Fault -> representative by the local gate rules, on a
    :class:`ReferenceUnionFind`; stems rank before branches."""
    from repro.faults.model import branch_fault, enumerate_faults, stem_fault

    def rank(fault):
        return (0 if fault.kind == "stem" else 1, fault.net,
                fault.consumer or "", fault.pin, fault.stuck_at)

    def line(consumer, pin, net, stuck_at):
        if circuit.fanout_count(net) > 1:
            return branch_fault(net, consumer, pin, stuck_at)
        return stem_fault(net, stuck_at)

    universe = (list(faults) if faults is not None
                else enumerate_faults(circuit))
    uf = ReferenceUnionFind(rank)
    for fault in universe:
        uf.find(fault)
    for gate in circuit.gates:
        out, kind = gate.output, gate.kind
        if kind in ("AND", "NAND"):
            merged, out_sa = 0, int(kind == "NAND")
        elif kind in ("OR", "NOR"):
            merged, out_sa = 1, int(kind == "OR")
        elif kind in ("NOT", "BUF"):
            for value in (0, 1):
                out_value = 1 - value if kind == "NOT" else value
                uf.union(line(out, 0, gate.inputs[0], value),
                         stem_fault(out, out_value))
            continue
        else:
            continue
        for pin, net in enumerate(gate.inputs):
            uf.union(line(out, pin, net, merged), stem_fault(out, out_sa))
    return {fault: uf.find(fault) for fault in universe}


def reference_collapse_faults(circuit, faults=None):
    """One representative per class, in the dataclass ordering."""
    return sorted(set(reference_equivalence_classes(circuit, faults).values()))


def reference_decode_atpg():
    """A :class:`~repro.atpg.seq_atpg.SequentialATPG` that decodes every
    machine each global step reports, already recorded or not, and
    keeps the first time through ``setdefault`` (or the ledger's
    membership test): the bookkeeping the ``seen`` mask replaced.  Its
    repack replays the whole sequence into the narrower simulator, where
    the engine gathers the surviving machines' flip-flop planes."""
    from repro.atpg import seq_atpg
    from repro.obs import context as obs
    from repro.obs import ledger

    def record(faults, sim, where, newly, time, times):
        for machine in reference_fault_positions(newly):
            position = where[machine]
            if not ledger.enabled():
                times.setdefault(position, time)
            elif position not in times:
                times[position] = time
                observed = sim.detecting_outputs(reference_mask_of([machine]))
                ledger.record("atpg.detect", fault=faults[position],
                              vector=time, engine="seq", observed=observed)

    class ReferenceDecodeATPG(seq_atpg.SequentialATPG):
        def _apply_suffix(self, sim, where, seen, suffix, sequence, times):
            # What _maybe_repack replays; it follows an _apply_suffix.
            self._replay = (sequence, times)
            before = len(times)
            for vector in suffix:
                newly = sim.step(vector)
                if newly:
                    record(self.faults, sim, where, newly, len(sequence),
                           times)
                sequence.append(tuple(vector))
            if len(times) > before:
                obs.incr("faultsim.faults_dropped", len(times) - before)
            return seen

        def _maybe_repack(self, sim, where, seen):
            """Replay the whole sequence into the narrower simulator."""
            sequence, times = self._replay
            undetected = [p for p in where if p not in times]
            factor = 1 + seq_atpg.REPACK_FACTOR
            if not undetected or len(where) < factor * len(undetected):
                return sim, where, seen
            packed = self._make_sim([self.faults[p] for p in undetected])
            packed.reset()
            for t, vector in enumerate(sequence):
                newly = packed.step(vector)
                if newly:
                    record(self.faults, packed, undetected, newly, t, times)
            return packed, undetected, seen

    return ReferenceDecodeATPG
