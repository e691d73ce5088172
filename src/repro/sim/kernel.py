"""Compiled fault-simulation kernel (the ``vector`` backend).

:class:`VectorFaultSimulator` is a drop-in alternative to
:class:`~repro.sim.fault_sim.PackedFaultSimulator` that stores the
three-valued ``(ones, zeros)`` planes as a ``(nets, 2, words)`` uint64
numpy matrix instead of per-net Python integers, and evaluates the
netlist through a *compiled program*: flat gate/slot tables in
topological order plus a sparse force table.  A small C interpreter
walks those tables; it is compiled once per machine from the embedded
source below (``cc -O3``), loaded with ``ctypes`` and cached under the
user cache dir keyed by a source digest.  Gates of any fanin run on it.
Without a working C compiler the backend is unavailable and ``auto``
stays on the packed reference.

A :meth:`~VectorFaultSimulator.step` is one C call per cycle.  A whole
query — each :class:`~repro.sim.session.SimSession` query, ``run`` and
``detects_all`` — is one C call too: ``repro_query`` runs the loop of
:meth:`~repro.sim.fault_sim.SimBackend.query` (the stop rule, the log of
new detections, word shedding and checkpoint snapshots) around the same
step code, so no Python runs between cycles.  The base class's Python
loop stays the reference the parity tests hold it to.

Fault injection is sparse: a force is a run of ``(word, ones, zeros)``
entries covering only the machine words where it forces something, so
applying one costs O(entries), not O(words).  Stem forces are OR/AND-NOT
into the driven row; a gate-pin (branch) force is applied in place on
its source row and undone after the gate reads it, except on gates whose
source feeds two pins, which force a copy.  Each step simulates only
machine words ``< active_words`` (the row stride stays ``W``): a
narrowing query sets the bound to the words holding its undetected
targets and sheds words as those fall.

The interpreter mirrors ``PackedFaultSimulator``'s gate formulas word
for word, so detection masks, coverage and ``(cycle, position)``
detection order are bit-identical to the packed reference — the parity
tests in ``tests/test_sim_backend.py`` assert exactly that, for every
active-word bound.

Compilation is keyed on the circuit fingerprint: the fault-independent
tables are cached on the circuit object (``circuit._vector_topology``),
mirroring ``compiled_topology``, so fault-dropping repacks reuse them
for free.  The per-fault-list force table is rebuilt per instance,
exactly like the packed simulator's injection masks.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..circuit.netlist import Circuit
from ..faults.model import Fault
from .fault_sim import (
    Query, SimBackend, compile_injection_masks, compiled_topology, words_of,
)
from .logic_sim import vector_from_string

_C_SOURCE = r"""
#include <stdint.h>
#include <string.h>

typedef uint64_t u64;
typedef int32_t i32;
typedef int64_t i64;

/* gate record: kind, out_net, slot_off, nin, out_force, shared_source */
enum { K_AND, K_NAND, K_OR, K_NOR, K_NOT, K_BUF, K_XOR, K_XNOR, K_MUX };

/* A force is a run of (word, ones, zeros) entries in ascending word
   order, covering only the words where it forces some machine.  Words
   at or past the active bound A are never touched. */
#define FORCE(fi) (fents + 3 * foff[fi]), (fents + 3 * foff[(fi) + 1])

static void apply_force(u64 *o, u64 *z, const u64 *e, const u64 *end, i64 A) {
    for (; e < end && (i64)e[0] < A; e += 3) {
        i64 w = (i64)e[0];
        u64 a = (o[w] | e[1]) & ~e[2];
        u64 b = (z[w] | e[2]) & ~e[1];
        o[w] = a; z[w] = b;
    }
}

/* Force a row in place, saving the words it overwrites at sv; returns
   the next free save slot. */
static u64 *force_saving(u64 *o, u64 *z, const u64 *e, const u64 *end,
                         i64 A, u64 *sv) {
    for (; e < end && (i64)e[0] < A; e += 3) {
        i64 w = (i64)e[0];
        sv[0] = o[w]; sv[1] = z[w]; sv += 2;
        u64 a = (o[w] | e[1]) & ~e[2];
        u64 b = (z[w] | e[2]) & ~e[1];
        o[w] = a; z[w] = b;
    }
    return sv;
}

/* Undo force_saving for the same force and bound. */
static const u64 *unforce(u64 *o, u64 *z, const u64 *e, const u64 *end,
                          i64 A, const u64 *sv) {
    for (; e < end && (i64)e[0] < A; e += 3) {
        i64 w = (i64)e[0];
        o[w] = sv[0]; z[w] = sv[1]; sv += 2;
    }
    return sv;
}

static void step_core(
    u64 *planes, i64 W, const u64 *fullm,
    const i32 *gates, i64 ngates, const i32 *slots,
    const u64 *fents, const i64 *foff, u64 *scratch, u64 *save, i64 A,
    const uint8_t *vec, const i32 *pis, i64 npis,
    const i32 *pos, i64 npos,
    const i32 *ffs, i64 nff, const u64 *state, u64 *newstate,
    u64 *det)
{
    const i64 R = 2 * W;
    const size_t AB = (size_t)A * 8;
    for (i64 p = 0; p < npis; p++) {
        i64 net = pis[2*p]; i32 fi = pis[2*p + 1];
        u64 *o = planes + net * R, *z = o + W;
        uint8_t v = vec[p];
        if (v == 1) { memcpy(o, fullm, AB); memset(z, 0, AB); }
        else if (v == 0) { memset(o, 0, AB); memcpy(z, fullm, AB); }
        else { memset(o, 0, AB); memset(z, 0, AB); }
        if (fi >= 0) apply_force(o, z, FORCE(fi), A);
    }
    for (i64 f = 0; f < nff; f++) {
        i64 net = ffs[4*f]; i32 fi = ffs[4*f + 2];
        u64 *o = planes + net * R, *z = o + W;
        memcpy(o, state + f * R, AB);
        memcpy(z, state + f * R + W, AB);
        if (fi >= 0) apply_force(o, z, FORCE(fi), A);
    }
    for (i64 g = 0; g < ngates; g++) {
        const i32 *gr = gates + g * 6;
        i32 kind = gr[0];
        i64 out = gr[1];
        const i32 *sl = slots + (i64)gr[2] * 2;
        i64 nin = gr[3];
        i32 shared = gr[5];
        const u64 *in1[nin]; const u64 *in0[nin];
        u64 *sv = save;
        for (i64 k = 0; k < nin; k++) {
            i64 src = sl[2*k]; i32 fi = sl[2*k + 1];
            u64 *o = planes + src * R, *z = o + W;
            if (fi >= 0) {
                if (shared) {
                    /* the source also feeds another pin: force a copy */
                    u64 *so = scratch + k * R, *sz = so + W;
                    memcpy(so, o, AB); memcpy(sz, z, AB);
                    apply_force(so, sz, FORCE(fi), A);
                    o = so; z = sz;
                } else {
                    sv = force_saving(o, z, FORCE(fi), A, sv);
                }
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
        /* one pass per gate: every word is read and written once.  The
           two-input AND/OR loops name their rows restrict so the
           compiler vectorises their word loop, which it does not do
           around the fanin loop, and most gates have two inputs */
        switch (kind) {
        case K_AND: case K_NAND:
            if (nin == 2) {
                const u64 *restrict a1 = in1[0], *restrict a0 = in0[0];
                const u64 *restrict b1 = in1[1], *restrict b0 = in0[1];
                u64 *restrict po = ao, *restrict pz = az;
                for (i64 w = 0; w < A; w++) {
                    u64 z = a0[w] | b0[w];
                    po[w] = a1[w] & b1[w] & ~z; pz[w] = z;
                }
            } else {
                for (i64 w = 0; w < A; w++) {
                    u64 o = in1[0][w], z = in0[0][w];
                    for (i64 k = 1; k < nin; k++) { o &= in1[k][w]; z |= in0[k][w]; }
                    ao[w] = o & ~z; az[w] = z;
                }
            }
            break;
        case K_OR: case K_NOR:
            if (nin == 2) {
                const u64 *restrict a1 = in1[0], *restrict a0 = in0[0];
                const u64 *restrict b1 = in1[1], *restrict b0 = in0[1];
                u64 *restrict po = ao, *restrict pz = az;
                for (i64 w = 0; w < A; w++) {
                    u64 o = a1[w] | b1[w];
                    po[w] = o; pz[w] = a0[w] & b0[w] & ~o;
                }
            } else {
                for (i64 w = 0; w < A; w++) {
                    u64 o = in1[0][w], z = in0[0][w];
                    for (i64 k = 1; k < nin; k++) { o |= in1[k][w]; z &= in0[k][w]; }
                    ao[w] = o; az[w] = z & ~o;
                }
            }
            break;
        case K_NOT: {
            const u64 *a1 = in1[0], *a0 = in0[0];
            for (i64 w = 0; w < A; w++) { ro[w] = a0[w]; rz[w] = a1[w]; }
            break; }
        case K_BUF: {
            const u64 *a1 = in1[0], *a0 = in0[0];
            for (i64 w = 0; w < A; w++) { ro[w] = a1[w]; rz[w] = a0[w]; }
            break; }
        case K_XOR: case K_XNOR:
            for (i64 w = 0; w < A; w++) {
                u64 o = in1[0][w], z = in0[0][w];
                for (i64 k = 1; k < nin; k++) {
                    u64 b1 = in1[k][w], b0 = in0[k][w];
                    u64 no = (o & b0) | (z & b1);
                    z = (o & b1) | (z & b0);
                    o = no;
                }
                ao[w] = o; az[w] = z;
            }
            break;
        case K_MUX: {
            const u64 *s1 = in1[0], *s0 = in0[0];
            const u64 *a1 = in1[1], *a0 = in0[1];
            const u64 *b1 = in1[2], *b0 = in0[2];
            for (i64 w = 0; w < A; w++) {
                ro[w] = (s0[w] & a1[w]) | (s1[w] & b1[w]) | (a1[w] & b1[w]);
                rz[w] = (s0[w] & a0[w]) | (s1[w] & b0[w]) | (a0[w] & b0[w]);
            }
            break; }
        }
        if (sv != save) {
            /* put the in-place forced sources back for their other readers */
            const u64 *rv = save;
            for (i64 k = 0; k < nin; k++) {
                i32 fi = sl[2*k + 1];
                if (fi >= 0) {
                    u64 *o = planes + (i64)sl[2*k] * R;
                    rv = unforce(o, o + W, FORCE(fi), A, rv);
                }
            }
        }
        i32 ofi = gr[4];
        if (ofi >= 0) apply_force(ro, rz, FORCE(ofi), A);
    }
    memset(det, 0, AB);
    for (i64 p = 0; p < npos; p++) {
        i64 net = pos[2*p]; i32 fi = pos[2*p + 1];
        u64 *o = planes + net * R, *z = o + W;
        if (fi >= 0) force_saving(o, z, FORCE(fi), A, save);
        if (o[0] & 1) { for (i64 w = 0; w < A; w++) det[w] |= z[w]; }
        else if (z[0] & 1) { for (i64 w = 0; w < A; w++) det[w] |= o[w]; }
        if (fi >= 0) unforce(o, z, FORCE(fi), A, save);
    }
    det[0] &= ~(u64)1;
    for (i64 f = 0; f < nff; f++) {
        i64 net = ffs[4*f + 1]; i32 fi = ffs[4*f + 3];
        u64 *so = newstate + f * R, *sz = so + W;
        memcpy(so, planes + net * R, AB);
        memcpy(sz, planes + net * R + W, AB);
        if (fi >= 0) apply_force(so, sz, FORCE(fi), A);
    }
}

void repro_step(
    u64 *planes, i64 W, const u64 *fullm,
    const i32 *gates, i64 ngates, const i32 *slots,
    const u64 *fents, const i64 *foff, u64 *scratch, u64 *save, i64 A,
    const uint8_t *vec, const i32 *pis, i64 npis,
    const i32 *pos, i64 npos,
    const i32 *ffs, i64 nff, const u64 *state, u64 *newstate,
    u64 *det)
{
    step_core(planes, W, fullm, gates, ngates, slots, fents, foff, scratch,
              save, A, vec, pis, npis, pos, npos, ffs, nff, state, newstate,
              det);
}

/* Slots of the status array repro_query reads and updates. */
enum { Q_POS, Q_WIDTH, Q_HIGH, Q_WORD_CYCLES, Q_LAST_CP, Q_NLOG, Q_NCP,
       Q_SWAPPED, Q_DONE };

/* Snapshot after cycle t: its cycle, width and log length into meta,
   the active words of the flip-flop planes into dst as an (nff, 2, A)
   token. */
static void snapshot(i64 *meta, u64 *dst, const u64 *state, i64 nff,
                     i64 W, i64 A, i64 t, i64 nlog) {
    meta[0] = t; meta[1] = A; meta[2] = nlog;
    for (i64 r = 0; r < 2 * nff; r++)
        memcpy(dst + r * A, state + r * W, (size_t)A * 8);
}

/* One session query: step vecs[pos..nvec) as cycles t0 + pos, ..., the
   loop of SimBackend.query.  seen/rem are the W-word detected and
   still-wanted masks; rem lives in words [0, A) and its highest nonzero
   word is st[Q_HIGH] (-1 when empty).  Each cycle that detects unseen
   machines appends its cycle and mask to the log; with interval > 0 the
   state is snapshotted after cycles on the grid, at prefix and at the
   end.  A only shrinks, so log rows and snapshot slots are sized by the
   width the query starts at, `stride` words (2 * nff * stride a slot).
   Returns early, with st[Q_DONE] clear, when the log or the snapshot
   slots are full; the caller drains them and calls again. */
void repro_query(
    u64 *planes, i64 W, const u64 *fullm,
    const i32 *gates, i64 ngates, const i32 *slots,
    const u64 *fents, const i64 *foff, u64 *scratch, u64 *save,
    const uint8_t *vecs, i64 nvec, i64 t0, const i32 *pis, i64 npis,
    const i32 *pos, i64 npos,
    const i32 *ffs, i64 nff, u64 *state, u64 *state_scratch, u64 *det,
    u64 *seen, u64 *rem, i64 narrow, i64 stop_early, i64 interval,
    i64 prefix, i64 stride, i64 *log_cycles, u64 *log_masks, i64 log_cap,
    i64 *cp_meta, u64 *cp_states, i64 cp_cap, i64 *st)
{
    i64 p = st[Q_POS], A = st[Q_WIDTH], high = st[Q_HIGH];
    i64 word_cycles = st[Q_WORD_CYCLES], last = st[Q_LAST_CP];
    i64 nlog = 0, ncp = 0, done = 0;
    u64 *sin = state, *sout = state_scratch;
    for (;;) {
        if (p >= nvec || (stop_early && high < 0)) { done = 1; break; }
        if (nlog == log_cap || ncp == cp_cap) break;
        step_core(planes, W, fullm, gates, ngates, slots, fents, foff,
                  scratch, save, A, vecs + p * npis, pis, npis, pos, npos,
                  ffs, nff, sin, sout, det);
        u64 *tmp = sin; sin = sout; sout = tmp;
        word_cycles += A;
        p++;
        i64 t = t0 + p;
        u64 any = 0;
        for (i64 w = 0; w < A; w++) {
            det[w] &= fullm[w] & ~seen[w];
            any |= det[w];
        }
        if (any) {
            u64 *row = log_masks + nlog * stride;
            memcpy(row, det, (size_t)A * 8);
            memset(row + A, 0, (size_t)(stride - A) * 8);
            log_cycles[nlog++] = t - 1;
            u64 hit = 0;
            for (i64 w = 0; w < A; w++) {
                seen[w] |= det[w];
                hit |= rem[w] & det[w];
                rem[w] &= ~det[w];
            }
            if (hit) {
                while (high >= 0 && !rem[high]) high--;
                /* shed the words no unseen target lives in */
                if (narrow) A = high < 0 ? 1 : high + 1;
            }
        }
        if (interval > 0 && (t % interval == 0 || t == prefix)) {
            snapshot(cp_meta + 3 * ncp, cp_states + ncp * 2 * nff * stride,
                     sin, nff, W, A, t, nlog);
            ncp++;
            last = t;
        }
    }
    /* The last step took no grid snapshot, so a slot is free for it. */
    if (done && interval > 0 && t0 + p != last) {
        snapshot(cp_meta + 3 * ncp, cp_states + ncp * 2 * nff * stride,
                 sin, nff, W, A, t0 + p, nlog);
        ncp++;
        last = t0 + p;
    }
    st[Q_POS] = p; st[Q_WIDTH] = A; st[Q_HIGH] = high;
    st[Q_WORD_CYCLES] = word_cycles; st[Q_LAST_CP] = last;
    st[Q_NLOG] = nlog; st[Q_NCP] = ncp; st[Q_SWAPPED] = sin != state;
    st[Q_DONE] = done;
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
        ptr, i64 = ctypes.c_void_p, ctypes.c_int64
        # planes, W, fullm, gates, ngates, slots, fents, foff, scratch,
        # save, A; then the per-call vectors, the PI/PO/flop tables and
        # the state/detection buffers.
        head = [ptr, i64, ptr, ptr, i64, ptr, ptr, ptr, ptr, ptr, i64]
        tables = [ptr, i64, ptr, i64, ptr, i64]
        lib.repro_step.argtypes = head + [ptr] + tables + [ptr, ptr, ptr]
        lib.repro_step.restype = None
        # repro_query: head without A; the vectors and start cycle; the
        # tables; state, scratch state, detection row, seen and wanted
        # words; narrow, stop_early, interval, prefix, stride; the log,
        # the snapshot slots and the status array.
        lib.repro_query.argtypes = (
            head[:-1] + [ptr, i64, i64] + tables + [ptr] * 5
            + [i64] * 5 + [ptr, ptr, i64, ptr, ptr, i64, ptr])
        lib.repro_query.restype = None
        _LIB = lib
    except OSError:
        _LIB = None
    return _LIB


class LevelizedTopology:
    """Fault-independent compiled program for one circuit.

    Flat int32 tables in topological order — the C interpreter's input,
    force columns left at -1.  A gate record is ``(kind, out_net,
    slot_off, nin, out_force, shared_source)``; ``shared_source`` marks
    gates where one net feeds two pins, whose branch faults must force a
    copy of the source rather than the source row itself.  Cached on the
    circuit keyed by its content fingerprint, like
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
            shared = int(len(set(in_idx)) < len(in_idx))
            gates.append([code, out_idx, soff, len(in_idx), -1, shared])
            max_arity = max(max_arity, len(in_idx))
        self.gates = np.asarray(gates, dtype=np.int32).reshape(-1, 6)
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


#: Bound on each of the detection log and snapshot buffers one
#: :meth:`VectorFaultSimulator.query` call fills before it returns to
#: drain them.
_QUERY_BUFFER_BYTES = 1 << 20

#: Force masks expanded to words per batch while building force entries
#: (bounds the dense scratch to about 1 MB per plane).
_FORCE_BATCH_BYTES = 1 << 20


def _force_entries(masks: Sequence[Tuple[int, int]],
                   words: int) -> Tuple[np.ndarray, np.ndarray]:
    """Sparse force table: ``(entries, offsets)`` where force ``i`` is
    ``entries[offsets[i]:offsets[i + 1]]``, one ``(word, ones, zeros)``
    row per nonzero word of its ``(force_ones, force_zeros)`` mask pair,
    in ascending word order.  A fault forces one machine, so most masks
    touch a single word of the ``words``-wide packing."""
    nbytes = words * 8
    batch = max(1, _FORCE_BATCH_BYTES // nbytes)
    chunks: List[np.ndarray] = []
    counts = np.zeros(len(masks), dtype=np.int64)
    for lo in range(0, len(masks), batch):
        part = masks[lo:lo + batch]
        ones = np.frombuffer(
            b"".join(m1.to_bytes(nbytes, "little") for m1, _m0 in part),
            dtype="<u8").reshape(-1, words)
        zeros = np.frombuffer(
            b"".join(m0.to_bytes(nbytes, "little") for _m1, m0 in part),
            dtype="<u8").reshape(-1, words)
        rows, cols = np.nonzero(ones | zeros)
        chunk = np.empty((len(rows), 3), dtype=np.uint64)
        chunk[:, 0] = cols
        chunk[:, 1] = ones[rows, cols]
        chunk[:, 2] = zeros[rows, cols]
        chunks.append(chunk)
        counts[lo:lo + len(part)] = np.bincount(rows, minlength=len(part))
    entries = (np.concatenate(chunks) if chunks
               else np.zeros((0, 3), dtype=np.uint64))
    if not len(entries):
        entries = np.zeros((1, 3), dtype=np.uint64)  # a valid pointer
    offsets = np.zeros(len(masks) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return entries, offsets


class VectorFaultSimulator(SimBackend):
    """Parallel-fault three-valued simulator over a uint64 plane matrix.

    Adds to :class:`~repro.sim.fault_sim.SimBackend` the C plumbing, the
    plane storage with its state-token format and the one-call
    :meth:`query`, with detection behaviour bit-identical to
    :class:`~repro.sim.fault_sim.PackedFaultSimulator`.  Raises
    :class:`RuntimeError` when the C step library cannot be compiled on
    this machine.
    """

    backend_name = "vector"

    def __init__(self, circuit: Circuit, faults: Sequence[Fault]):
        self._lib = load_kernel_library()
        if self._lib is None:
            raise RuntimeError("sim_backend='vector' requires a working C "
                               "compiler; use 'packed' or 'auto'")
        super().__init__(circuit, faults)
        topo = self._topology
        program = levelized_topology(circuit)
        W = (self.num_machines + 63) // 64
        self.W = W
        self._full_words = _int_to_words(self.full_mask, W)

        stem_masks, branch_masks = compile_injection_masks(
            self.faults, topo.index)

        force_masks: List[Tuple[int, int]] = []

        def fidx(mask) -> int:
            if mask is None:
                return -1
            force_masks.append(mask)
            return len(force_masks) - 1

        self._pis = np.asarray(
            [[i, fidx(stem_masks.get(n))] for i, n in topo.pi],
            dtype=np.int32).reshape(-1, 2)
        self._po_masks = [branch_masks.get((n, 0)) for _i, n in topo.po]
        self._pos = np.asarray(
            [[i, fidx(mask)] for (i, _n), mask in zip(topo.po,
                                                     self._po_masks)],
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
        self._fents, self._foff = _force_entries(force_masks, W)

        self.planes = np.zeros((program.num_nets, 2, W), dtype=np.uint64)
        nff = len(self._ffs)
        self._state = np.zeros((nff, 2, W), dtype=np.uint64)
        self._state_scratch = np.zeros_like(self._state)
        # Rows [0, arity) hold forced copies of shared sources; the rest
        # saves the words in-place forcing overwrites.
        self._scratch = np.zeros((2 * program.max_arity, 2, W),
                                 dtype=np.uint64)
        self._det = np.zeros(W, dtype=np.uint64)
        #: Words :meth:`step` simulates: machines ``< 64 * active_words``.
        #: A narrowing :meth:`query` lowers it; words past it keep stale
        #: values until a full-width reset or restore.
        self.active_words = W

        vp = ctypes.c_void_p
        p = lambda a: vp(a.ctypes.data)
        self._head_args = (
            p(self.planes), ctypes.c_int64(self.W), p(self._full_words),
            p(self._gates), ctypes.c_int64(len(self._gates)), p(self._slots),
            p(self._fents), p(self._foff), p(self._scratch),
            vp(self._scratch.ctypes.data
               + program.max_arity * self._scratch.strides[0]))
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

    def save_state(self):
        """Snapshot the flip-flop planes of the active words and the
        time (opaque token)."""
        return (self._state[:, :, :self.active_words].copy(), self.time)

    def restore_state(self, token) -> None:
        state, time = token
        self._state[:, :, :state.shape[2]] = state
        self.time = time

    @staticmethod
    def remap_state_token(token, kept_bits: Sequence[int]):
        """Project a :meth:`save_state` token onto a narrower packing
        (same contract as the packed simulator's method — machines are
        independent, so bit-gathering the planes is exact).  ``kept_bits``
        may list the old machines in any order."""
        state, time = token
        kept = np.asarray(list(kept_bits), dtype=np.intp)
        new_w = (len(kept) + 63) // 64
        bits = np.unpackbits(
            np.ascontiguousarray(state, dtype="<u8").view(np.uint8),
            axis=2, bitorder="little")
        gathered = np.zeros(state.shape[:2] + (new_w * 64,), dtype=np.uint8)
        gathered[:, :, :len(kept)] = bits[:, :, kept]
        del bits
        packed = np.packbits(gathered, axis=2, bitorder="little")
        return (packed.view("<u8").astype(np.uint64), time)

    def _state_pairs(self) -> List[Tuple[int, int]]:
        raw = self._state.astype("<u8", copy=False).tobytes()
        wb = 8 * self.W
        return [(int.from_bytes(raw[i:i + wb], "little"),
                 int.from_bytes(raw[i + wb:i + 2 * wb], "little"))
                for i in range(0, len(raw), 2 * wb)]

    def _set_state_pairs(self, pairs: List[Tuple[int, int]]) -> None:
        wb = 8 * self.W
        raw = b"".join(plane.to_bytes(wb, "little")
                       for pair in pairs for plane in pair)
        self._state[:] = np.frombuffer(raw, dtype="<u8").reshape(
            self._state.shape)

    # -- simulation ------------------------------------------------------------

    def _encode(self, vectors: Iterable[Sequence[int]]) -> Tuple[bytes, int]:
        """``(block, n)``: ``n`` vectors as one byte per primary input
        (0, 1 or X), each checked against the PI count the C kernel
        reads, in C-level passes; only ``"01X"`` strings are parsed one
        by one."""
        vectors = list(vectors)
        try:
            block = b"".join(map(bytes, vectors))
        except TypeError:
            vectors = [vector_from_string(v) if isinstance(v, str) else v
                       for v in vectors]
            block = b"".join(map(bytes, vectors))
        bad = set(map(len, vectors)) - {len(self._pis)}
        if bad:
            raise ValueError(f"need {len(self._pis)} input values, "
                             f"got {min(bad)}")
        return block, len(vectors)

    def _checked_words(self) -> int:
        words = self.active_words
        if not 0 < words <= self.W:
            raise ValueError(f"active_words must be in [1, {self.W}], "
                             f"got {words}")
        return words

    def step(self, vector: Sequence[int]) -> int:
        """Apply one vector; return this cycle's detection mask
        (bit-identical to the packed simulator's for every machine
        below ``64 * active_words``; no machine above is reported)."""
        words = self._checked_words()
        self._lib.repro_step(
            *self._head_args, words, self._encode((vector,))[0],
            *self._tail_args, self._state_ptr, self._state_scratch_ptr,
            self._det_ptr)
        self._state, self._state_scratch = self._state_scratch, self._state
        self._state_ptr, self._state_scratch_ptr = (
            self._state_scratch_ptr, self._state_ptr)
        self.time += 1
        return _words_to_int(self._det[:words]) & self.fault_mask

    def _net_pair(self, idx: int) -> Tuple[int, int]:
        return (_words_to_int(self.planes[idx, 0]),
                _words_to_int(self.planes[idx, 1]))

    def query(
        self,
        vectors: Iterable[Sequence[int]],
        start: int,
        seen: int,
        wanted: int,
        stop_early: bool = False,
        narrow: bool = False,
        grid: Optional[Tuple[int, int]] = None,
    ) -> Query:
        """:meth:`SimBackend.query` as one ``repro_query`` call, plus
        one more each time its bounded log or snapshot slots fill up."""
        block, n = self._encode(vectors)
        nff = len(self._ffs)
        remaining = wanted & ~seen
        width = words_of(remaining) if narrow else self.W
        interval, prefix = grid if grid is not None else (0, -1)
        # Buffers sized from the query, each bounded to about 1 MB; the
        # width only shrinks, so rows and slots are ``width`` words wide.
        log_cap = max(1, min(n, _QUERY_BUFFER_BYTES // (8 * width)))
        cp_cap = 1 if grid is None else max(1, min(
            n // interval + 2,
            _QUERY_BUFFER_BYTES // (16 * width * nff or 1)))
        log_cycles = np.empty(log_cap, dtype=np.int64)
        log_masks = np.empty((log_cap, width), dtype=np.uint64)
        cp_meta = np.empty((cp_cap, 3), dtype=np.int64)
        cp_states = np.empty((cp_cap, 2 * width * nff), dtype=np.uint64)
        high = ((remaining.bit_length() + 63) >> 6) - 1
        status = np.array([0, width, high, 0, start, 0, 0, 0, 0],
                          dtype=np.int64)
        seen_words = _int_to_words(seen, self.W)
        rem_words = _int_to_words(remaining, self.W)
        p = lambda a: a.ctypes.data
        args = (block, n, start, *self._tail_args)
        tail = (p(seen_words), p(rem_words), narrow, stop_early, interval,
                prefix, width, p(log_cycles), p(log_masks), log_cap,
                p(cp_meta), p(cp_states), cp_cap, p(status))
        log: List[Tuple[int, int]] = []
        checkpoints = []
        time = self.time
        while True:
            self._lib.repro_query(
                *self._head_args, *args, self._state_ptr,
                self._state_scratch_ptr, self._det_ptr, *tail)
            nlog, ncp, swapped, done = status[5:].tolist()
            if swapped:
                self._state, self._state_scratch = (self._state_scratch,
                                                    self._state)
                self._state_ptr, self._state_scratch_ptr = (
                    self._state_scratch_ptr, self._state_ptr)
            raw = log_masks[:nlog].astype("<u8", copy=False).tobytes()
            wb = 8 * width
            drained = [
                (cycle, int.from_bytes(raw[i * wb:(i + 1) * wb], "little"))
                for i, cycle in enumerate(log_cycles[:nlog].tolist())]
            # A snapshot's seen mask is the log up to it.
            at = 0
            for (cycle, words, logged), row in zip(cp_meta[:ncp].tolist(),
                                                   cp_states):
                for _cycle, mask in drained[at:logged]:
                    seen |= mask
                at = logged
                token = row[:2 * words * nff].reshape(nff, 2, words).copy()
                checkpoints.append((cycle, (token, time + cycle - start),
                                    words, len(log) + logged, seen))
            for _cycle, mask in drained[at:]:
                seen |= mask
            log += drained
            if done:
                break
        steps, self.active_words, _high, word_cycles = status[:4].tolist()
        self.time += steps
        return Query(start + steps, seen, word_cycles, log, checkpoints)

    @property
    def plane_bytes(self) -> int:
        """Bytes held in the uint64 plane/force/state matrices."""
        return (self.planes.nbytes + self._fents.nbytes + self._foff.nbytes
                + 2 * self._state.nbytes + self._scratch.nbytes)
