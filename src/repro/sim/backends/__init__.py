"""Pluggable simulation backends and size-aware auto-dispatch.

Three engines implement the :class:`SimulatorBackend` protocol:

``density``
    Exact density matrix (4^n memory, <= 12 qubits) — ground truth.
``statevector``
    Batched statevector trajectories with Monte-Carlo Kraus noise
    (n_traj x 2^n memory, <= ~24 qubits) — the fast noisy engine.
``mps``
    Bond-truncated matrix product state (linear memory) — the 20+
    qubit engine, exact up to the tracked truncated weight.

:func:`select_backend` picks one from ``(n_qubits, noise, memory
budget)``; see the README "Simulation backends" section for the rules.
All three run a compiled :class:`~repro.sim.program.SimProgram` from a
:class:`~repro.sim.program.ProgramCache`: the statevector engine the
fused recipe, the density and MPS engines the flat one.
"""

from __future__ import annotations

from repro.sim.backends.base import (
    ScheduleCache,
    SimulationResult,
    SimulatorBackend,
    gate_schedule,
    is_noisy,
    reference_statevector,
    schedule_cache,
)
from repro.sim.backends.density import DensityMatrixBackend, DensityMatrixResult
from repro.sim.backends.mps_backend import MPSBackend, MPSResult
from repro.sim.backends.statevector import (
    StatevectorTrajectoryBackend,
    TrajectoryResult,
)
from repro.sim.noise import NoiseModel
from repro.sim.program import ProgramCache

#: Default working-set ceiling for auto-dispatch: 2 GiB.
DEFAULT_MEMORY_BUDGET = 2**31

#: Exact density matrices win below this size even when noisy: the 4^n
#: work is still smaller than a meaningful trajectory count's 2^n work.
_DENSITY_PREFERRED_MAX = 8

BACKEND_NAMES = ("auto", "density", "statevector", "mps")

_ALIASES = {
    "density": "density",
    "density_matrix": "density",
    "dm": "density",
    "statevector": "statevector",
    "sv": "statevector",
    "trajectories": "statevector",
    "mps": "mps",
    "tensornet": "mps",
}


def select_backend(
    n_qubits: int,
    noise: NoiseModel | None = None,
    *,
    backend: str = "auto",
    trajectories: int | None = None,
    max_bond: int | None = None,
    seed: int = 0,
    memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET,
    max_workers: int | None = None,
    program_cache: ProgramCache | None = None,
) -> SimulatorBackend:
    """Choose a simulation engine for a problem shape.

    ``backend='auto'`` dispatches on (n_qubits, noise, memory budget):

    * noiseless → statevector if one state fits the budget, else MPS;
    * noisy → exact density matrix up to 8 qubits (when 4^n fits),
      then statevector trajectories while a trajectory chunk fits,
      then MPS trajectories.

    Any explicit name (``density`` / ``statevector`` / ``mps``, plus
    common aliases) bypasses the heuristics but still validates the
    qubit count against the engine's own hard limits.

    ``program_cache`` injects a private compiled-program cache (see
    :mod:`repro.sim.program`), for every engine, in place of the
    process-wide shared one.
    """

    def make(name: str) -> SimulatorBackend:
        if name == "density":
            return DensityMatrixBackend(program_cache=program_cache)
        kwargs = {
            "seed": seed, "max_workers": max_workers,
            "program_cache": program_cache,
        }
        if trajectories is not None:
            kwargs["trajectories"] = trajectories
        if name == "statevector":
            return StatevectorTrajectoryBackend(**kwargs)
        if max_bond is not None:
            kwargs["max_bond"] = max_bond
        return MPSBackend(**kwargs)

    canonical = _ALIASES.get(backend, backend)
    if canonical != "auto":
        if canonical not in ("density", "statevector", "mps"):
            raise ValueError(
                f"unknown backend {backend!r}; pick from {BACKEND_NAMES}"
            )
        chosen = make(canonical)
        if not chosen.supports(n_qubits, is_noisy(noise)):
            raise ValueError(
                f"backend {canonical!r} cannot simulate {n_qubits} qubits"
            )
        return chosen
    noisy = is_noisy(noise)
    density = make("density")
    statevec = make("statevector")
    sv_fits = (
        statevec.supports(n_qubits, noisy)
        and statevec.memory_bytes(n_qubits, noisy) <= memory_budget_bytes
    )
    if noisy:
        dm_fits = (
            n_qubits <= _DENSITY_PREFERRED_MAX
            and density.supports(n_qubits, noisy)
            and density.memory_bytes(n_qubits, noisy) <= memory_budget_bytes
        )
        if dm_fits:
            return density
    if sv_fits:
        return statevec
    return make("mps")


__all__ = [
    "BACKEND_NAMES",
    "DEFAULT_MEMORY_BUDGET",
    "DensityMatrixBackend",
    "DensityMatrixResult",
    "MPSBackend",
    "MPSResult",
    "NoiseModel",
    "ProgramCache",
    "ScheduleCache",
    "SimulationResult",
    "SimulatorBackend",
    "StatevectorTrajectoryBackend",
    "TrajectoryResult",
    "gate_schedule",
    "is_noisy",
    "reference_statevector",
    "schedule_cache",
    "select_backend",
]
