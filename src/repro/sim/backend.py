"""Pluggable fault-simulation backends: the ``SimBackend`` protocol and
the ``make_backend`` factory.

Two standard backends implement the protocol, bit-identically:

* ``"packed"`` — :class:`~repro.sim.fault_sim.PackedFaultSimulator`,
  the pure-Python packed-integer reference oracle.  Always available.
* ``"vector"`` — :class:`~repro.sim.kernel.VectorFaultSimulator`, the
  compiled C kernel over uint64 planes.  Needs numpy and a C compiler
  (found automatically, the library cached per machine).

The flows never name a backend.  ``auto`` (``None``) picks ``vector``
when it is available and the run is big enough for kernel setup to
amortize: at least ``AUTO_MIN_FAULTS`` fault machines or
``AUTO_MIN_GATES`` gates.  Every other case falls back to ``packed``.
Because the backends are bit-identical, the choice can never change
result bits.  An explicit ``"packed"`` or ``"vector"`` exists for the
backend parity tests and benchmarks.  Custom API-compatible
``simulator_factory`` callables (e.g. ``PackedTransitionSimulator``,
test doubles) bypass selection.
"""

from __future__ import annotations

import importlib.util
from time import perf_counter
from typing import (
    Dict, Iterable, List, Optional, Protocol, Sequence, Tuple,
    runtime_checkable,
)

from ..circuit.netlist import Circuit
from ..faults.model import Fault
from ..obs import context as obs
from .fault_sim import FaultSimResult, PackedFaultSimulator

#: Resolve to packed/vector by availability and fault count.
BACKEND_AUTO = "auto"
#: The pure-Python packed-integer reference simulator.
BACKEND_PACKED = "packed"
#: The levelized uint64-plane kernel (:mod:`repro.sim.kernel`).
BACKEND_VECTOR = "vector"

#: The concrete (selectable) backends, in preference order.
BACKEND_NAMES = (BACKEND_PACKED, BACKEND_VECTOR)

#: ``auto`` keeps fault lists smaller than this on the packed backend.
#: The ATPG beam search builds one single-fault mini sim per target and
#: steps it thousands of times.  On a few hundred gates a packed step
#: takes tens of microseconds (about 0.05 ms on scan s298), the packed
#: lane step simulates a whole batch of candidates in one pass, and
#: kernel setup per mini would dominate.
AUTO_MIN_FAULTS = 16

#: ...unless the circuit itself is big.  Above this gate count a packed
#: Python step costs milliseconds even for one fault machine, while the
#: kernel's levelized program is fingerprint-cached on the circuit
#: object, so every mini sim after the first reuses it.  The vector
#: kernel has no lane step, and at s9234 scale the two tie on search:
#: 60 preset rollouts from the post-preamble state took a
#: median 0.74 s on vector minis (one candidate at a time) and 0.77 s
#: on packed lanes (5 runs each, 2-vCPU x86-64 VM).  The rule stays
#: because the scan-aware completions' ``_verify`` steps the same minis
#: one vector at a time, where the kernel wins (0.19 ms against 1.65 ms
#: per single-fault step there).
AUTO_MIN_GATES = 4096


@runtime_checkable
class SimBackend(Protocol):
    """What every fault-simulation backend must provide.

    The contract is exactly the surface :class:`SimSession`, the
    compaction oracle and the ATPG engines consume; the protocol is
    ``runtime_checkable`` so tests can assert conformance structurally.
    Implementations also expose ``faults`` / ``num_machines`` /
    ``full_mask`` / ``fault_mask`` / ``time`` attributes and the
    ``backend_name`` class attribute naming them.
    """

    def reset(self) -> None: ...

    def step(self, vector: Sequence[int]) -> int: ...

    def run(self, vectors: Iterable[Sequence[int]],
            stop_when_all_detected: bool = False,
            reset: bool = True) -> FaultSimResult: ...

    def save_state(self): ...

    def restore_state(self, token) -> None: ...

    def detects_all(self, vectors: Sequence[Sequence[int]]) -> bool: ...

    def detecting_outputs(self, mask: int) -> List[str]: ...

    def faults_from_mask(self, mask: int) -> List[Fault]: ...


def numpy_available() -> bool:
    """True when numpy is importable — checked via ``find_spec`` so the
    packed-only path never pays (or risks) the actual import."""
    return importlib.util.find_spec("numpy") is not None


def vector_available() -> bool:
    """True when the vector backend can run: numpy importable and the C
    step library loaded."""
    if not numpy_available():
        return False
    from .kernel import load_kernel_library

    return load_kernel_library() is not None


def resolve_backend_name(name: Optional[str] = None) -> str:
    """Validate a backend name (``None`` means ``auto``); returns
    ``auto`` or a concrete backend name."""
    if name is None:
        return BACKEND_AUTO
    if name != BACKEND_AUTO and name not in BACKEND_NAMES:
        raise ValueError(
            f"unknown sim backend {name!r}: expected one of "
            f"{(BACKEND_AUTO,) + BACKEND_NAMES}")
    return name


def resolve_concrete_backend(name: Optional[str], num_faults: int,
                             num_gates: int = 0) -> str:
    """The concrete backend ``make_backend`` would build: resolves
    ``auto`` by availability, fault count and circuit size.  Callers
    that must pin a choice for a simulator's lifetime (e.g.
    :class:`SimSession`, whose repacks must keep one state-token
    format) resolve once through here and reuse the answer."""
    name = resolve_backend_name(name)
    if name != BACKEND_AUTO:
        return name
    worthwhile = num_faults >= AUTO_MIN_FAULTS or num_gates >= AUTO_MIN_GATES
    if worthwhile and vector_available():
        return BACKEND_VECTOR
    return BACKEND_PACKED


def backend_class(name: str):
    """The simulator class registered under a concrete backend name
    (the class itself is the ``factory(circuit, faults)``)."""
    if name == BACKEND_PACKED:
        return PackedFaultSimulator
    if name == BACKEND_VECTOR:
        from .kernel import VectorFaultSimulator

        return VectorFaultSimulator
    raise ValueError(f"not a concrete sim backend: {name!r}")


def make_backend(circuit: Circuit, faults: Sequence[Fault],
                 name: Optional[str] = None) -> SimBackend:
    """Build a fault simulator for ``circuit`` × ``faults``.

    ``name`` is ``None``/``"auto"`` (the size rule of
    :func:`resolve_concrete_backend`), ``"packed"`` or ``"vector"``.  An
    explicit ``"vector"`` without numpy or a C compiler raises
    :class:`RuntimeError` rather than silently degrading.  Emits one
    ``faultsim.backend`` event (journal) and counter/gauges (metrics
    registry) per build so ``repro-atpg profile``/``watch`` show which
    backend served a run.
    """
    concrete = resolve_concrete_backend(name, len(faults),
                                        circuit.num_gates)
    if concrete == BACKEND_VECTOR and not numpy_available():
        raise RuntimeError(
            "sim_backend='vector' requires numpy (not importable here); "
            "use 'packed' or 'auto'")
    start = perf_counter()
    sim = backend_class(concrete)(circuit, faults)
    compile_seconds = perf_counter() - start
    plane_bytes = getattr(sim, "plane_bytes", 0)
    obs.incr(f"faultsim.backend.{concrete}")
    obs.set_gauge("faultsim.backend.compile_seconds", compile_seconds)
    obs.set_gauge("faultsim.backend.plane_bytes", plane_bytes)
    obs.event("faultsim.backend", backend=concrete, faults=len(faults),
              compile_seconds=round(compile_seconds, 6),
              plane_bytes=plane_bytes)
    return sim
