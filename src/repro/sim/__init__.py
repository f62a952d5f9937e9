"""Simulators and fidelity metrics for noisy fault-tolerant execution.

The engines live behind :mod:`repro.sim.backends` (density matrix,
statevector trajectories, MPS) with :func:`select_backend` auto-dispatch
and :func:`evaluate_fidelity` as the circuit-level entry point.  Each
engine runs a :class:`SimProgram` that :func:`compile_program` lowers
once per (circuit, noise) under the engine's fixed recipe — fused
front layers for the statevector engine, flat source order for the
density and MPS engines — and :class:`ProgramCache` memoizes.
"""

from repro.sim.backends import (
    DensityMatrixBackend,
    MPSBackend,
    SimulationResult,
    SimulatorBackend,
    StatevectorTrajectoryBackend,
    select_backend,
)
from repro.sim.evaluate import FidelityEvaluation, evaluate_fidelity
from repro.sim.fidelity import (
    process_fidelity_1q,
    sequence_process_infidelity,
    state_fidelity,
)
from repro.sim.noise import NoiseModel, canonical_gate_name, depolarizing_kraus
from repro.sim.program import (
    ProgramCache,
    SimProgram,
    compile_program,
    default_program_cache,
    program_key,
)

__all__ = [
    "DensityMatrixBackend",
    "FidelityEvaluation",
    "MPSBackend",
    "NoiseModel",
    "ProgramCache",
    "SimProgram",
    "SimulationResult",
    "SimulatorBackend",
    "StatevectorTrajectoryBackend",
    "canonical_gate_name",
    "compile_program",
    "default_program_cache",
    "depolarizing_kraus",
    "evaluate_fidelity",
    "process_fidelity_1q",
    "program_key",
    "select_backend",
    "sequence_process_infidelity",
    "state_fidelity",
]
