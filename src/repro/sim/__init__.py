"""Simulation substrate: scalar reference logic simulation, the two
fault simulators (the packed bit-parallel reference oracle and the
vectorized levelized kernel) on the shared :class:`SimBackend` base,
and the incremental checkpoint/fault-drop session engine layered on top
of them.

The vector kernel itself (:mod:`repro.sim.kernel`) is imported lazily —
it compiles and loads a C library, and nothing here pulls it in until a
caller asks whether the ``vector`` backend is available."""

from .backend import (
    BACKEND_AUTO,
    BACKEND_NAMES,
    BACKEND_PACKED,
    BACKEND_VECTOR,
    make_backend,
    resolve_backend_name,
)
from .fault_sim import (
    CompiledTopology,
    FaultSimResult,
    PackedFaultSimulator,
    SimBackend,
    compiled_topology,
    iter_fault_positions,
    positions_mask,
)
from .logic_sim import LogicSimulator, vector_from_string
from .session import SimSession

__all__ = [
    "LogicSimulator",
    "vector_from_string",
    "PackedFaultSimulator",
    "FaultSimResult",
    "CompiledTopology",
    "compiled_topology",
    "iter_fault_positions",
    "positions_mask",
    "SimSession",
    "SimBackend",
    "make_backend",
    "resolve_backend_name",
    "BACKEND_AUTO",
    "BACKEND_PACKED",
    "BACKEND_VECTOR",
    "BACKEND_NAMES",
]
