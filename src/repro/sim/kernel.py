"""Compiled fault-simulation kernel (the ``vector`` backend).

:class:`VectorFaultSimulator` is a drop-in alternative to
:class:`~repro.sim.fault_sim.PackedFaultSimulator` that stores the
three-valued ``(ones, zeros)`` planes as a ``(nets, 2, words)`` uint64
numpy matrix instead of per-net Python integers, and evaluates the
netlist through a *compiled program*: flat gate/slot/force tables in
topological order.  A small C interpreter walks those tables; it is
compiled once per machine from the embedded source below (``cc -O3``),
loaded with ``ctypes`` and cached under the user cache dir keyed by a
source digest.  One C call per step (or one per *sequence* via
``run_block``) leaves zero Python dispatch in the inner loop.  Gates of
any fanin run on it.  Without a working C compiler the backend is
unavailable and ``auto`` stays on the packed reference.

The interpreter mirrors ``PackedFaultSimulator``'s gate formulas word
for word, so detection masks, coverage and ``(cycle, position)``
detection order are bit-identical to the packed reference — the parity
tests in ``tests/test_sim_backend.py`` assert exactly that.

Compilation is keyed on the circuit fingerprint: the fault-independent
tables are cached on the circuit object (``circuit._vector_topology``),
mirroring ``compiled_topology``, so fault-dropping repacks reuse them
for free.  Per-fault-list force
rows are rebuilt per instance, exactly like the packed simulator's
injection masks.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..circuit.gates import ONE, X, ZERO
from ..circuit.netlist import Circuit
from ..faults.model import Fault
from ..obs import context as obs
from ..obs import ledger
from .fault_sim import (
    FaultSimResult, compile_injection_masks, compiled_topology,
    iter_fault_positions,
)
from .logic_sim import vector_from_string

_C_SOURCE = r"""
#include <stdint.h>
#include <string.h>

typedef uint64_t u64;
typedef int32_t i32;
typedef int64_t i64;

/* gate record: kind, out_net, slot_off, nin, out_force */
enum { K_AND, K_NAND, K_OR, K_NOR, K_NOT, K_BUF, K_XOR, K_XNOR, K_MUX };

static void apply_force(u64 *o, u64 *z, const u64 *f, i64 W) {
    const u64 *f1 = f, *f0 = f + W;
    for (i64 w = 0; w < W; w++) {
        u64 a = (o[w] | f1[w]) & ~f0[w];
        u64 b = (z[w] | f0[w]) & ~f1[w];
        o[w] = a; z[w] = b;
    }
}

static void step_core(
    u64 *planes, i64 W, const u64 *fullm,
    const i32 *gates, i64 ngates, const i32 *slots,
    const u64 *forces, u64 *scratch,
    const uint8_t *vec, const i32 *pis, i64 npis,
    const i32 *pos, i64 npos,
    const i32 *ffs, i64 nff, const u64 *state, u64 *newstate,
    u64 *det)
{
    const i64 R = 2 * W;
    for (i64 p = 0; p < npis; p++) {
        i64 net = pis[2*p]; i32 fi = pis[2*p + 1];
        u64 *o = planes + net * R, *z = o + W;
        uint8_t v = vec[p];
        if (v == 1) { memcpy(o, fullm, W * 8); memset(z, 0, W * 8); }
        else if (v == 0) { memset(o, 0, W * 8); memcpy(z, fullm, W * 8); }
        else { memset(o, 0, W * 8); memset(z, 0, W * 8); }
        if (fi >= 0) apply_force(o, z, forces + fi * R, W);
    }
    for (i64 f = 0; f < nff; f++) {
        i64 net = ffs[4*f]; i32 fi = ffs[4*f + 2];
        u64 *o = planes + net * R, *z = o + W;
        memcpy(o, state + f * R, R * 8);
        if (fi >= 0) apply_force(o, z, forces + fi * R, W);
    }
    for (i64 g = 0; g < ngates; g++) {
        const i32 *gr = gates + g * 5;
        i32 kind = gr[0];
        i64 out = gr[1];
        const i32 *sl = slots + (i64)gr[2] * 2;
        i64 nin = gr[3];
        const u64 *in1[nin]; const u64 *in0[nin];
        for (i64 k = 0; k < nin; k++) {
            i64 src = sl[2*k]; i32 fi = sl[2*k + 1];
            const u64 *o = planes + src * R, *z = o + W;
            if (fi >= 0) {
                u64 *so = scratch + k * R, *sz = so + W;
                memcpy(so, o, W * 8); memcpy(sz, z, W * 8);
                apply_force(so, sz, forces + fi * R, W);
                o = so; z = sz;
            }
            in1[k] = o; in0[k] = z;
        }
        u64 *ro = planes + out * R, *rz = ro + W;
        /* inverting kinds accumulate straight into the swapped target
           rows, mirroring the packed formulas without a swap pass */
        u64 *ao = ro, *az = rz;
        if (kind == K_NAND || kind == K_NOR || kind == K_XNOR) {
            ao = rz; az = ro;
        }
        switch (kind) {
        case K_AND: case K_NAND: {
            memcpy(ao, in1[0], W * 8); memcpy(az, in0[0], W * 8);
            for (i64 k = 1; k < nin; k++) {
                const u64 *b1 = in1[k], *b0 = in0[k];
                for (i64 w = 0; w < W; w++) { ao[w] &= b1[w]; az[w] |= b0[w]; }
            }
            for (i64 w = 0; w < W; w++) ao[w] &= ~az[w];
            break; }
        case K_OR: case K_NOR: {
            memcpy(ao, in1[0], W * 8); memcpy(az, in0[0], W * 8);
            for (i64 k = 1; k < nin; k++) {
                const u64 *b1 = in1[k], *b0 = in0[k];
                for (i64 w = 0; w < W; w++) { ao[w] |= b1[w]; az[w] &= b0[w]; }
            }
            for (i64 w = 0; w < W; w++) az[w] &= ~ao[w];
            break; }
        case K_NOT:
            memcpy(ro, in0[0], W * 8); memcpy(rz, in1[0], W * 8); break;
        case K_BUF:
            memcpy(ro, in1[0], W * 8); memcpy(rz, in0[0], W * 8); break;
        case K_XOR: case K_XNOR: {
            memcpy(ao, in1[0], W * 8); memcpy(az, in0[0], W * 8);
            for (i64 k = 1; k < nin; k++) {
                const u64 *b1 = in1[k], *b0 = in0[k];
                for (i64 w = 0; w < W; w++) {
                    u64 no = (ao[w] & b0[w]) | (az[w] & b1[w]);
                    u64 nz = (ao[w] & b1[w]) | (az[w] & b0[w]);
                    ao[w] = no; az[w] = nz;
                }
            }
            break; }
        case K_MUX: {
            const u64 *s1 = in1[0], *s0 = in0[0];
            const u64 *a1 = in1[1], *a0 = in0[1];
            const u64 *b1 = in1[2], *b0 = in0[2];
            for (i64 w = 0; w < W; w++) {
                ro[w] = (s0[w] & a1[w]) | (s1[w] & b1[w]) | (a1[w] & b1[w]);
                rz[w] = (s0[w] & a0[w]) | (s1[w] & b0[w]) | (a0[w] & b0[w]);
            }
            break; }
        }
        i32 ofi = gr[4];
        if (ofi >= 0) apply_force(ro, rz, forces + (i64)ofi * R, W);
    }
    memset(det, 0, W * 8);
    for (i64 p = 0; p < npos; p++) {
        i64 net = pos[2*p]; i32 fi = pos[2*p + 1];
        const u64 *o = planes + net * R, *z = o + W;
        if (fi >= 0) {
            u64 *so = scratch, *sz = so + W;
            memcpy(so, o, W * 8); memcpy(sz, z, W * 8);
            apply_force(so, sz, forces + fi * R, W);
            o = so; z = sz;
        }
        if (o[0] & 1) { for (i64 w = 0; w < W; w++) det[w] |= z[w]; }
        else if (z[0] & 1) { for (i64 w = 0; w < W; w++) det[w] |= o[w]; }
    }
    det[0] &= ~(u64)1;
    for (i64 f = 0; f < nff; f++) {
        i64 net = ffs[4*f + 1]; i32 fi = ffs[4*f + 3];
        u64 *so = newstate + f * R, *sz = so + W;
        memcpy(so, planes + net * R, R * 8);
        if (fi >= 0) apply_force(so, sz, forces + fi * R, W);
    }
}

void repro_step(
    u64 *planes, i64 W, const u64 *fullm,
    const i32 *gates, i64 ngates, const i32 *slots,
    const u64 *forces, u64 *scratch,
    const uint8_t *vec, const i32 *pis, i64 npis,
    const i32 *pos, i64 npos,
    const i32 *ffs, i64 nff, const u64 *state, u64 *newstate,
    u64 *det)
{
    step_core(planes, W, fullm, gates, ngates, slots, forces, scratch,
              vec, pis, npis, pos, npos, ffs, nff, state, newstate, det);
}

void repro_run_block(
    u64 *planes, i64 W, const u64 *fullm,
    const i32 *gates, i64 ngates, const i32 *slots,
    const u64 *forces, u64 *scratch,
    const uint8_t *vecs, i64 nvec, const i32 *pis, i64 npis,
    const i32 *pos, i64 npos,
    const i32 *ffs, i64 nff, u64 *state, u64 *state_scratch,
    u64 *dets)
{
    u64 *sin = state, *sout = state_scratch;
    for (i64 t = 0; t < nvec; t++) {
        step_core(planes, W, fullm, gates, ngates, slots, forces, scratch,
                  vecs + t * npis, pis, npis, pos, npos, ffs, nff,
                  sin, sout, dets + t * W);
        u64 *tmp = sin; sin = sout; sout = tmp;
    }
    if (sin != state)
        memcpy(state, sin, (size_t)nff * 2 * W * 8);
}
"""

_LIB: Optional[ctypes.CDLL] = None
_LIB_TRIED = False


def _cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro-atpg")


def _compile_kernel_library() -> Optional[str]:
    """Compile the embedded C source into a cached shared object;
    returns its path, or ``None`` when no working C compiler exists."""
    digest = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]
    cache = _cache_dir()
    so_path = os.path.join(cache, f"simkernel-{digest}.so")
    if os.path.exists(so_path):
        return so_path
    try:
        os.makedirs(cache, exist_ok=True)
    except OSError:
        cache = tempfile.gettempdir()
        so_path = os.path.join(cache, f"repro-simkernel-{digest}.so")
        if os.path.exists(so_path):
            return so_path
    src_fd, src_path = tempfile.mkstemp(suffix=".c", dir=cache)
    tmp_so = src_path[:-2] + ".so"
    try:
        with os.fdopen(src_fd, "w") as fh:
            fh.write(_C_SOURCE)
        base = ["cc", "-shared", "-fPIC", "-O3", "-o", tmp_so, src_path]
        for extra in (["-march=native", "-funroll-loops"], []):
            try:
                proc = subprocess.run(base[:4] + extra + base[4:],
                                      capture_output=True, timeout=120)
            except (OSError, subprocess.TimeoutExpired):
                return None
            if proc.returncode == 0:
                os.replace(tmp_so, so_path)  # atomic vs concurrent builds
                return so_path
        return None
    finally:
        for leftover in (src_path, tmp_so):
            try:
                os.unlink(leftover)
            except OSError:
                pass


def load_kernel_library() -> Optional[ctypes.CDLL]:
    """The process-wide C step library (memoized; ``None`` when
    compilation fails)."""
    global _LIB, _LIB_TRIED
    if _LIB_TRIED:
        return _LIB
    _LIB_TRIED = True
    try:
        so_path = _compile_kernel_library()
        if so_path is None:
            return None
        lib = ctypes.CDLL(so_path)
        lib.repro_step.restype = None
        lib.repro_run_block.restype = None
        _LIB = lib
    except OSError:
        _LIB = None
    return _LIB


class LevelizedTopology:
    """Fault-independent compiled program for one circuit.

    Flat int32 tables in topological order — the C interpreter's input,
    force columns left at -1.  Cached on the circuit keyed by its
    content fingerprint, like
    :func:`~repro.sim.fault_sim.compiled_topology`.
    """

    __slots__ = ("num_nets", "gates", "slots", "max_arity")

    def __init__(self, circuit: Circuit):
        topo = compiled_topology(circuit)
        self.num_nets = topo.num_nets
        gates: List[List[int]] = []
        slots: List[List[int]] = []
        max_arity = 1
        for code, out_idx, in_idx in topo.gates:
            soff = len(slots)
            for i in in_idx:
                slots.append([i, -1])
            gates.append([code, out_idx, soff, len(in_idx), -1])
            max_arity = max(max_arity, len(in_idx))
        self.gates = np.asarray(gates, dtype=np.int32).reshape(-1, 5)
        self.slots = np.asarray(slots, dtype=np.int32).reshape(-1, 2)
        self.max_arity = max_arity


def levelized_topology(circuit: Circuit) -> LevelizedTopology:
    """The (fingerprint-cached) levelized program for ``circuit``."""
    from ..cache.fingerprint import circuit_fingerprint

    fingerprint = circuit_fingerprint(circuit)
    cached = getattr(circuit, "_vector_topology", None)
    if cached is not None:
        cached_fp, topo = cached
        if cached_fp == fingerprint:
            return topo
    topo = LevelizedTopology(circuit)
    circuit._vector_topology = (fingerprint, topo)
    return topo


def _int_to_words(value: int, words: int) -> np.ndarray:
    return np.frombuffer(value.to_bytes(words * 8, "little"),
                         dtype="<u8").copy()


def _words_to_int(row: np.ndarray) -> int:
    return int.from_bytes(np.ascontiguousarray(row, dtype="<u8").tobytes(),
                          "little")


class VectorFaultSimulator:
    """Parallel-fault three-valued simulator over a uint64 plane matrix.

    API-compatible with :class:`PackedFaultSimulator` (the full
    :class:`~repro.sim.backend.SimBackend` surface plus the query
    helpers the flow uses), with bit-identical detection behaviour.
    Raises :class:`RuntimeError` when the C step library cannot be
    compiled on this machine.
    """

    backend_name = "vector"

    def __init__(self, circuit: Circuit, faults: Sequence[Fault]):
        self._lib = load_kernel_library()
        if self._lib is None:
            raise RuntimeError("sim_backend='vector' requires a working C "
                               "compiler; use 'packed' or 'auto'")
        self.circuit = circuit
        self.faults = list(faults)
        self.num_machines = len(self.faults) + 1
        self.full_mask = (1 << self.num_machines) - 1
        self.fault_mask = self.full_mask & ~1
        topo = compiled_topology(circuit)
        program = levelized_topology(circuit)
        self._index = topo.index
        self._topo = topo
        W = (self.num_machines + 63) // 64
        self.W = W
        self._full_words = _int_to_words(self.full_mask, W)

        stem_masks, branch_masks = compile_injection_masks(
            self.faults, topo.index)

        force_rows: List[np.ndarray] = []

        def fidx(mask) -> int:
            if mask is None:
                return -1
            force_rows.append(np.concatenate(
                [_int_to_words(mask[0], W), _int_to_words(mask[1], W)]))
            return len(force_rows) - 1

        self._pis = np.asarray(
            [[i, fidx(stem_masks.get(n))] for i, n in topo.pi],
            dtype=np.int32).reshape(-1, 2)
        self._pos = np.asarray(
            [[i, fidx(branch_masks.get((n, 0)))] for i, n in topo.po],
            dtype=np.int32).reshape(-1, 2)
        self._ffs = np.asarray(
            [[q, d, fidx(stem_masks.get(flop.q)),
              fidx(branch_masks.get((flop.q, 0)))]
             for (q, (d, _)), flop in zip(
                 zip(topo.flop_q, topo.flop_d), circuit.flops)],
            dtype=np.int32).reshape(-1, 4)

        gates = program.gates.copy()
        slots = program.slots.copy()
        for gate, rec in zip(circuit.topo_gates, gates):
            soff = rec[2]
            for pin in range(rec[3]):
                slots[soff + pin, 1] = fidx(
                    branch_masks.get((gate.output, pin)))
            rec[4] = fidx(stem_masks.get(gate.output))
        self._gates = gates
        self._slots = slots
        if force_rows:
            self._forces = np.stack(force_rows).reshape(-1, 2, W)
        else:
            self._forces = np.zeros((1, 2, W), dtype=np.uint64)

        self.planes = np.zeros((program.num_nets, 2, W), dtype=np.uint64)
        nff = len(self._ffs)
        self._state = np.zeros((nff, 2, W), dtype=np.uint64)
        self._state_scratch = np.zeros_like(self._state)
        self._scratch = np.zeros((program.max_arity + 1, 2, W),
                                 dtype=np.uint64)
        self._det = np.zeros(W, dtype=np.uint64)
        self.time = 0

        vp = ctypes.c_void_p
        p = lambda a: vp(a.ctypes.data)
        self._head_args = (
            p(self.planes), ctypes.c_int64(self.W), p(self._full_words),
            p(self._gates), ctypes.c_int64(len(self._gates)), p(self._slots),
            p(self._forces), p(self._scratch))
        self._tail_args = (
            p(self._pis), ctypes.c_int64(len(self._pis)),
            p(self._pos), ctypes.c_int64(len(self._pos)),
            p(self._ffs), ctypes.c_int64(len(self._ffs)))
        self._state_ptr = p(self._state)
        self._state_scratch_ptr = p(self._state_scratch)
        self._det_ptr = p(self._det)

    # -- state -----------------------------------------------------------------

    def reset(self) -> None:
        """All flip-flops back to X in every machine; time to 0."""
        self._state[:] = 0
        self.time = 0

    def load_state(self, values: Sequence[int]) -> None:
        """Force an identical binary/X state into every machine."""
        if len(values) != len(self._state):
            raise ValueError(f"need {len(self._state)} state values")
        self._state[:] = 0
        for i, v in enumerate(values):
            if v == ONE:
                self._state[i, 0] = self._full_words
            elif v == ZERO:
                self._state[i, 1] = self._full_words

    def save_state(self):
        """Snapshot the flip-flop planes and time (opaque token)."""
        return (self._state.copy(), self.time)

    def restore_state(self, token) -> None:
        state, time = token
        self._state[...] = state
        self.time = time

    @staticmethod
    def remap_state_token(token, kept_bits: Sequence[int]):
        """Project a :meth:`save_state` token onto a narrower packing
        (same contract as the packed simulator's method — machines are
        independent, so bit-gathering the planes is exact)."""
        state, time = token
        kept = np.asarray(list(kept_bits), dtype=np.int64)
        new_w = (len(kept) + 63) // 64
        src_word = kept >> 6
        src_bit = (kept & 63).astype(np.uint64)
        bits = (state[:, :, src_word] >> src_bit) & np.uint64(1)
        out = np.zeros(state.shape[:2] + (new_w,), dtype=np.uint64)
        for w in range(new_w):
            seg = bits[:, :, w * 64:(w + 1) * 64]
            shifts = np.arange(seg.shape[2], dtype=np.uint64)
            out[:, :, w] = np.bitwise_or.reduce(seg << shifts, axis=2)
        return (out, time)

    def machine_state(self, machine: int) -> Tuple[int, ...]:
        """Scalar flip-flop values of one machine (0 = fault-free)."""
        word, bit = machine >> 6, np.uint64(machine & 63)
        ones = (self._state[:, 0, word] >> bit) & np.uint64(1)
        zeros = (self._state[:, 1, word] >> bit) & np.uint64(1)
        return tuple(ONE if o else (ZERO if z else X)
                     for o, z in zip(ones, zeros))

    def load_machine_states(self, states: Sequence[Sequence[int]]) -> None:
        """Load a distinct scalar state per machine (packed contract)."""
        if len(states) != self.num_machines:
            raise ValueError(f"need {self.num_machines} per-machine states")
        arr = np.asarray(states, dtype=np.int64)  # (machines, nff)
        machines = np.arange(self.num_machines)
        words, bits = machines >> 6, (machines & 63).astype(np.uint64)
        self._state[:] = 0
        for plane, value in ((0, ONE), (1, ZERO)):
            sel = arr == value  # (machines, nff)
            for w in range(self.W):
                m = words == w
                if not m.any():
                    continue
                contrib = sel[m].astype(np.uint64) << bits[m][:, None]
                self._state[:, plane, w] = np.bitwise_or.reduce(
                    contrib, axis=0)

    def good_state(self) -> Tuple[int, ...]:
        """Fault-free flip-flop values (``ZERO``/``ONE``/``X``)."""
        return self.machine_state(0)

    def ff_effect_masks(self) -> List[int]:
        """Per flip-flop: machines holding the opposite binary value of
        the fault-free machine (packed contract)."""
        result = []
        one = np.uint64(1)
        for i in range(len(self._state)):
            ones, zeros = self._state[i, 0], self._state[i, 1]
            if ones[0] & one:
                result.append(_words_to_int(zeros) & self.fault_mask)
            elif zeros[0] & one:
                result.append(_words_to_int(ones) & self.fault_mask)
            else:
                result.append(0)
        return result

    # -- simulation ------------------------------------------------------------

    def _vector_array(self, vector: Sequence[int]) -> np.ndarray:
        if isinstance(vector, str):
            vector = vector_from_string(vector)
        return np.asarray(vector, dtype=np.uint8)

    def step(self, vector: Sequence[int]) -> int:
        """Apply one vector; return this cycle's detection mask
        (bit-identical to the packed simulator's)."""
        vec = self._vector_array(vector)
        self._lib.repro_step(
            *self._head_args, ctypes.c_void_p(vec.ctypes.data),
            *self._tail_args, self._state_ptr, self._state_scratch_ptr,
            self._det_ptr)
        self._state, self._state_scratch = self._state_scratch, self._state
        self._state_ptr, self._state_scratch_ptr = (
            self._state_scratch_ptr, self._state_ptr)
        self.time += 1
        return _words_to_int(self._det) & self.fault_mask

    # -- queries (post-step plane reads, packed contract) ----------------------

    def _net_planes(self, idx: int) -> Tuple[int, int]:
        return (_words_to_int(self.planes[idx, 0]),
                _words_to_int(self.planes[idx, 1]))

    def good_net_value(self, net: str) -> int:
        """Fault-free value of ``net`` as of the last :meth:`step`."""
        one = np.uint64(1)
        idx = self._index[net]
        if self.planes[idx, 0, 0] & one:
            return ONE
        if self.planes[idx, 1, 0] & one:
            return ZERO
        return X

    def net_effect_mask(self, net: str) -> int:
        """Machines whose value at ``net`` opposes the fault-free one."""
        idx = self._index[net]
        ones, zeros = self._net_planes(idx)
        if ones & 1:
            return zeros & self.fault_mask
        if zeros & 1:
            return ones & self.fault_mask
        return 0

    def good_outputs(self) -> Tuple[int, ...]:
        """Fault-free primary output values of the last :meth:`step`."""
        one = np.uint64(1)
        result = []
        for idx in self._pos[:, 0]:
            if self.planes[idx, 0, 0] & one:
                result.append(ONE)
            elif self.planes[idx, 1, 0] & one:
                result.append(ZERO)
            else:
                result.append(X)
        return tuple(result)

    def detecting_outputs(self, mask: int) -> List[str]:
        """PO names observing the machines in ``mask`` (last step)."""
        observed: List[str] = []
        for (idx, name), rec in zip(self._topo.po, self._pos):
            ones, zeros = self._net_planes(idx)
            fi = rec[1]
            if fi >= 0:
                m1 = _words_to_int(self._forces[fi, 0])
                m0 = _words_to_int(self._forces[fi, 1])
                ones = (ones | m1) & ~m0
                zeros = (zeros | m0) & ~m1
            if ones & 1:
                hit = zeros
            elif zeros & 1:
                hit = ones
            else:
                hit = 0
            if hit & mask:
                observed.append(name)
        return observed

    def run(
        self,
        vectors: Iterable[Sequence[int]],
        stop_when_all_detected: bool = False,
        reset: bool = True,
    ) -> FaultSimResult:
        """Simulate a whole sequence; record first-detection times.

        Identical semantics (and telemetry counters) to the packed
        simulator's :meth:`~PackedFaultSimulator.run`.  Without early
        stopping the entire block runs in one C call.
        """
        if reset:
            self.reset()
        result = FaultSimResult(faults=list(self.faults))
        faults = self.faults
        detection_time = result.detection_time
        remaining = self.fault_mask
        vectors = list(vectors)
        if not stop_when_all_detected and vectors:
            for t, newly in enumerate(self._run_block(vectors)):
                newly &= remaining
                if newly:
                    remaining &= ~newly
                    for position in iter_fault_positions(newly):
                        detection_time[faults[position]] = t
            result.num_vectors = len(vectors)
        else:
            for t, vector in enumerate(vectors):
                newly = self.step(vector) & remaining
                if newly:
                    remaining &= ~newly
                    for position in iter_fault_positions(newly):
                        detection_time[faults[position]] = t
                result.num_vectors = t + 1
                if stop_when_all_detected and remaining == 0:
                    break
        obs.incr("faultsim.runs")
        obs.incr("faultsim.cycles", result.num_vectors)
        if result.detection_time:
            obs.incr("faultsim.faults_dropped", len(result.detection_time))
        if ledger.enabled():
            ledger.record("faultsim.run", vectors=result.num_vectors,
                          detected=len(result.detection_time),
                          packed=len(faults))
        return result

    def _run_block(self, vectors: Sequence[Sequence[int]]) -> List[int]:
        """One C call for the whole sequence; per-cycle detection ints."""
        vecs = np.stack([self._vector_array(v) for v in vectors])
        vecs = np.ascontiguousarray(vecs, dtype=np.uint8)
        dets = np.zeros((len(vectors), self.W), dtype=np.uint64)
        self._lib.repro_run_block(
            *self._head_args, ctypes.c_void_p(vecs.ctypes.data),
            ctypes.c_int64(len(vectors)), *self._tail_args,
            self._state_ptr, self._state_scratch_ptr,
            ctypes.c_void_p(dets.ctypes.data))
        self.time += len(vectors)
        self._det[:] = dets[-1]
        fault_mask = self.fault_mask
        raw = dets.astype("<u8").tobytes()
        wb = self.W * 8
        return [int.from_bytes(raw[t * wb:(t + 1) * wb], "little")
                & fault_mask for t in range(len(vectors))]

    def detects_all(self, vectors: Sequence[Sequence[int]]) -> bool:
        """True when the sequence detects *every* packed fault."""
        self.reset()
        remaining = self.fault_mask
        for vector in vectors:
            remaining &= ~self.step(vector)
            if remaining == 0:
                return True
        return remaining == 0

    def faults_from_mask(self, mask: int) -> List[Fault]:
        """Decode a detection mask into the fault objects it covers."""
        faults = self.faults
        return [faults[position] for position in iter_fault_positions(mask)]

    @property
    def plane_bytes(self) -> int:
        """Bytes held in the uint64 plane/force/state matrices."""
        return (self.planes.nbytes + self._forces.nbytes
                + 2 * self._state.nbytes + self._scratch.nbytes)
