"""Compiled fault-simulation kernel (the ``vector`` backend).

:class:`VectorFaultSimulator` is a drop-in alternative to
:class:`~repro.sim.fault_sim.PackedFaultSimulator` that stores the
three-valued ``(ones, zeros)`` planes as ``(nets, 2, words)`` uint64
rows in standard-library ``array`` buffers instead of per-net Python
integers, and evaluates the
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

The fault-independent int32 tables are part of the circuit's
:class:`~repro.sim.fault_sim.CompiledTopology` (its
:meth:`~repro.sim.fault_sim.CompiledTopology.kernel_program`, built on
first use), so fault-dropping repacks reuse them for free.  The
per-fault-list force table is rebuilt per instance, exactly like the
packed simulator's injection masks.  State tokens are remapped onto a
narrower packing by one C bit-gather too.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import tempfile
from array import array
from typing import Iterable, List, Optional, Sequence, Tuple

from ..circuit.netlist import Circuit
from ..faults.model import Fault
from .fault_sim import Query, SimBackend, compile_injection_masks, words_of
from .logic_sim import vector_from_string

_C_SOURCE = r"""
#include <stdint.h>
#include <string.h>

typedef uint64_t u64;
typedef int32_t i32;
typedef int64_t i64;

/* gate record: kind, out_net, slot_off, nin, out_force, shared_source */
enum { K_AND, K_NAND, K_OR, K_NOR, K_NOT, K_BUF, K_XOR, K_XNOR };

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

void repro_step(
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

/* Slots of the status array repro_query reads and updates. */
enum { Q_POS, Q_WIDTH, Q_HIGH, Q_WORD_CYCLES, Q_LAST_CP, Q_NLOG, Q_NCP,
       Q_SWAPPED, Q_DONE };

/* Copy the first A words of each of `rows` rows between row strides:
   state tokens hold the active words of the W-word flip-flop rows. */
void repro_copy_rows(u64 *dst, i64 dst_stride, const u64 *src,
                     i64 src_stride, i64 rows, i64 A) {
    for (i64 r = 0; r < rows; r++)
        memcpy(dst + r * dst_stride, src + r * src_stride, (size_t)A * 8);
}

/* Bit j of each dst row (new_stride words, zeroed by the caller) is bit
   kept[j] of the same src row (stride words): a state token projected
   onto a narrower packing. */
void repro_remap(u64 *dst, i64 new_stride, const u64 *src, i64 stride,
                 i64 rows, const i64 *kept, i64 nkept) {
    for (i64 r = 0; r < rows; r++) {
        const u64 *s = src + r * stride;
        u64 *d = dst + r * new_stride;
        for (i64 j = 0; j < nkept; j++) {
            i64 b = kept[j];
            d[j >> 6] |= ((s[b >> 6] >> (b & 63)) & 1) << (j & 63);
        }
    }
}

/* Snapshot after cycle t: its cycle, width and log length into meta,
   the active words of the flip-flop planes into dst as an (nff, 2, A)
   token. */
static void snapshot(i64 *meta, u64 *dst, const u64 *state, i64 nff,
                     i64 W, i64 A, i64 t, i64 nlog) {
    meta[0] = t; meta[1] = A; meta[2] = nlog;
    repro_copy_rows(dst, A, state, W, 2 * nff, A);
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
        repro_step(planes, W, fullm, gates, ngates, slots, fents, foff,
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
    # Only a build runs the compiler; a flow that loads a cached
    # library never imports ``subprocess``.
    import subprocess

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
        # repro_query: head without A; the vectors and start cycle; the
        # tables; state, scratch state, detection row, seen and wanted
        # words; narrow, stop_early, interval, prefix, stride; the log,
        # the snapshot slots and the status array.
        lib.repro_query.argtypes = (
            head[:-1] + [ptr, i64, i64] + tables + [ptr] * 5
            + [i64] * 5 + [ptr, ptr, i64, ptr, ptr, i64, ptr])
        # dst, dst stride, src, src stride, rows, words.
        lib.repro_copy_rows.argtypes = [ptr, i64, ptr, i64, i64, i64]
        # dst, its stride, src, its stride, rows, kept bits, their count.
        lib.repro_remap.argtypes = [ptr, i64, ptr, i64, i64, ptr, i64]
        for name in ("repro_step", "repro_query", "repro_copy_rows",
                     "repro_remap"):
            getattr(lib, name).restype = None
        _LIB = lib
    except OSError:
        _LIB = None
    return _LIB


def _zeros(words: int) -> array:
    return array("Q", [0]) * words  # no zeroed bytes of that size first


def _to_words(value: int, words: int) -> array:
    return array("Q", value.to_bytes(8 * words, "little"))


def _address(buffer: array) -> int:
    return buffer.buffer_info()[0]


#: Bound on each of the detection log and snapshot buffers one
#: :meth:`VectorFaultSimulator.query` call fills before it returns to
#: drain them.
_QUERY_BUFFER_BYTES = 1 << 20

_WORD = (1 << 64) - 1


def _force_entries(masks: Sequence[Tuple[int, int]]) -> Tuple[array, array]:
    """Sparse force table: ``(entries, offsets)`` where force ``i`` is
    the ``(word, ones, zeros)`` triples ``offsets[i]`` up to
    ``offsets[i + 1]`` of the flat ``entries``, one per nonzero word of
    its ``(force_ones, force_zeros)`` mask pair, in ascending word order.
    A fault forces one machine, so most masks touch a single word."""
    entries = array("Q")
    offsets = array("q", [0])
    for ones, zeros in masks:
        both = ones | zeros
        while both:
            shift = ((both & -both).bit_length() - 1) & ~63
            entries.extend((shift >> 6, ones >> shift & _WORD,
                            zeros >> shift & _WORD))
            both &= ~(_WORD << shift)
        offsets.append(len(entries) // 3)
    if not entries:
        entries.extend((0, 0, 0))  # a valid pointer
    return entries, offsets


class VectorFaultSimulator(SimBackend):
    """Parallel-fault three-valued simulator over uint64 plane buffers.

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
        index = topo.index
        program = topo.kernel_program()
        W = (self.num_machines + 63) // 64
        self.W = W
        self._full_words = _to_words(self.full_mask, W)

        stem_masks, branch_masks = compile_injection_masks(self.faults, index)

        force_masks: List[Tuple[int, int]] = []

        def fidx(mask) -> int:
            if mask is None:
                return -1
            force_masks.append(mask)
            return len(force_masks) - 1

        self._pis = array("i", [x for i, n in topo.pi
                                for x in (i, fidx(stem_masks.get(n)))])
        self._po_masks = [branch_masks.get((n, 0)) for _i, n in topo.po]
        self._pos = array("i", [x for (i, _n), mask in zip(topo.po,
                                                          self._po_masks)
                                for x in (i, fidx(mask))])
        self._ffs = array("i", [
            x for q, (d, name) in zip(topo.flop_q, topo.flop_d)
            for x in (q, d, fidx(stem_masks.get(name)),
                      fidx(branch_masks.get((name, 0))))])

        # Only the gates a fault sits on differ from the shared program.
        gates = program.gates[:]
        slots = program.slots[:]
        gate_of = program.gate_of
        for net, mask in stem_masks.items():
            g = gate_of.get(index[net])
            if g is not None:
                gates[6 * g + 4] = fidx(mask)
        for (consumer, pin), mask in branch_masks.items():
            g = gate_of.get(index.get(consumer))
            if g is not None and pin < gates[6 * g + 3]:
                slots[2 * (gates[6 * g + 2] + pin) + 1] = fidx(mask)
        self._gates = gates
        self._slots = slots
        self._fents, self._foff = _force_entries(force_masks)

        self._nff = nff = len(circuit.flops)
        self.planes = _zeros(topo.num_nets * 2 * W)
        self._state = _zeros(nff * 2 * W)
        self._state_scratch = _zeros(nff * 2 * W)
        # Rows [0, arity) hold forced copies of shared sources; the rest
        # saves the words in-place forcing overwrites.
        self._scratch = _zeros(2 * program.max_arity * 2 * W)
        self._det = _zeros(W)
        #: Words :meth:`step` simulates: machines ``< 64 * active_words``.
        #: A narrowing :meth:`query` lowers it; words past it keep stale
        #: values until a full-width reset or restore.
        self.active_words = W

        vp = ctypes.c_void_p
        p = lambda a: vp(_address(a))
        self._head_args = (
            p(self.planes), ctypes.c_int64(W), p(self._full_words),
            p(self._gates), ctypes.c_int64(len(self._gates) // 6),
            p(self._slots), p(self._fents), p(self._foff), p(self._scratch),
            vp(_address(self._scratch) + program.max_arity * 2 * W * 8))
        self._tail_args = (
            p(self._pis), ctypes.c_int64(len(self._pis) // 2),
            p(self._pos), ctypes.c_int64(len(self._pos) // 2),
            p(self._ffs), ctypes.c_int64(nff))
        self._state_ptr = p(self._state)
        self._state_scratch_ptr = p(self._state_scratch)
        self._det_ptr = p(self._det)

    # -- state -----------------------------------------------------------------

    def _swap_states(self) -> None:
        self._state, self._state_scratch = self._state_scratch, self._state
        self._state_ptr, self._state_scratch_ptr = (self._state_scratch_ptr,
                                                    self._state_ptr)

    def reset(self) -> None:
        """All flip-flops back to X in every machine; time to 0."""
        ctypes.memset(self._state_ptr, 0, 8 * len(self._state))
        self.time = 0

    def save_state(self):
        """Snapshot the flip-flop planes of the active words and the
        time: an opaque ``(rows, words, time)`` token, ``rows`` holding
        ``words`` words of each flip-flop's ones and zeros rows."""
        words = self.active_words
        if words == self.W:
            return (self._state[:], words, self.time)
        rows = _zeros(2 * self._nff * words)
        self._lib.repro_copy_rows(_address(rows), words, self._state_ptr,
                                  self.W, 2 * self._nff, words)
        return (rows, words, self.time)

    def restore_state(self, token) -> None:
        rows, words, time = token
        if words == self.W:
            memoryview(self._state)[:] = rows  # never resizes the buffer
        else:
            self._lib.repro_copy_rows(self._state_ptr, self.W,
                                      _address(rows), words, 2 * self._nff,
                                      words)
        self.time = time

    @staticmethod
    def remap_state_token(token, kept_bits: Sequence[int]):
        """Project a :meth:`save_state` token onto a narrower packing
        (same contract as the packed simulator's method — machines are
        independent, so bit-gathering the planes is exact), in one C
        pass.  ``kept_bits`` may list the old machines in any order."""
        rows, words, time = token
        kept = array("q", kept_bits)
        new_words = (len(kept) + 63) // 64
        count = len(rows) // words
        gathered = _zeros(count * new_words)
        load_kernel_library().repro_remap(
            _address(gathered), new_words, _address(rows), words, count,
            _address(kept), len(kept))
        return (gathered, new_words, time)

    def _state_pairs(self) -> List[Tuple[int, int]]:
        raw = self._state.tobytes()
        wb = 8 * self.W
        return [(int.from_bytes(raw[i:i + wb], "little"),
                 int.from_bytes(raw[i + wb:i + 2 * wb], "little"))
                for i in range(0, len(raw), 2 * wb)]

    def _set_state_pairs(self, pairs: List[Tuple[int, int]]) -> None:
        wb = 8 * self.W
        memoryview(self._state).cast("B")[:] = b"".join(
            plane.to_bytes(wb, "little") for pair in pairs for plane in pair)

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
        npis = len(self._pis) // 2
        bad = set(map(len, vectors)) - {npis}
        if bad:
            raise ValueError(f"need {npis} input values, got {min(bad)}")
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
        self._swap_states()
        self.time += 1
        return (int.from_bytes(self._det[:words].tobytes(), "little")
                & self.fault_mask)

    def _net_pair(self, idx: int) -> Tuple[int, int]:
        W = self.W
        raw = self.planes[2 * W * idx:2 * W * (idx + 1)].tobytes()
        return (int.from_bytes(raw[:8 * W], "little"),
                int.from_bytes(raw[8 * W:], "little"))

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
        nff = self._nff
        remaining = wanted & ~seen
        width = words_of(remaining) if narrow else self.W
        interval, prefix = grid if grid is not None else (0, -1)
        # Buffers sized from the query, each bounded to about 1 MB; the
        # width only shrinks, so rows and slots are ``width`` words wide.
        log_cap = max(1, min(n, _QUERY_BUFFER_BYTES // (8 * width)))
        cp_cap = 1 if grid is None else max(1, min(
            n // interval + 2,
            _QUERY_BUFFER_BYTES // (16 * width * nff or 1)))
        slot = 2 * width * nff
        log_cycles = array("q", [0]) * log_cap
        log_masks = _zeros(log_cap * width)
        cp_meta = array("q", [0]) * (3 * cp_cap)
        cp_states = _zeros(max(1, cp_cap * slot))
        high = ((remaining.bit_length() + 63) >> 6) - 1
        status = array("q", [0, width, high, 0, start, 0, 0, 0, 0])
        seen_words = _to_words(seen, self.W)
        rem_words = _to_words(remaining, self.W)
        args = (block, n, start, *self._tail_args)
        tail = (_address(seen_words), _address(rem_words), narrow,
                stop_early, interval, prefix, width, _address(log_cycles),
                _address(log_masks), log_cap, _address(cp_meta),
                _address(cp_states), cp_cap, _address(status))
        raw = memoryview(log_masks).cast("B")
        wb = 8 * width
        log: List[Tuple[int, int]] = []
        checkpoints = []
        time = self.time
        while True:
            self._lib.repro_query(
                *self._head_args, *args, self._state_ptr,
                self._state_scratch_ptr, self._det_ptr, *tail)
            nlog, ncp, swapped, done = status[5:]
            if swapped:
                self._swap_states()
            drained = [
                (cycle, int.from_bytes(raw[i * wb:(i + 1) * wb], "little"))
                for i, cycle in enumerate(log_cycles[:nlog])]
            # A snapshot's seen mask is the log up to it.
            at = 0
            for i in range(ncp):
                cycle, words, logged = cp_meta[3 * i:3 * i + 3]
                for _cycle, mask in drained[at:logged]:
                    seen |= mask
                at = logged
                rows = cp_states[i * slot:i * slot + 2 * words * nff]
                checkpoints.append((cycle, (rows, words,
                                            time + cycle - start),
                                    words, len(log) + logged, seen))
            for _cycle, mask in drained[at:]:
                seen |= mask
            log += drained
            if done:
                break
        steps, self.active_words, _high, word_cycles = status[:4]
        self.time += steps
        return Query(start + steps, seen, word_cycles, log, checkpoints)

    @property
    def plane_bytes(self) -> int:
        """Bytes held in the uint64 plane/force/state buffers."""
        return 8 * (len(self.planes) + len(self._fents) + len(self._foff)
                    + 2 * len(self._state) + len(self._scratch))
