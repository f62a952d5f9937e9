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
:class:`~repro.sim.program.ProgramCache`.
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


def _make(
    name: str,
    trajectories: int | None,
    max_bond: int | None,
    seed: int,
    max_workers: int | None,
    sim_options: dict | None = None,
) -> SimulatorBackend:
    options = dict(sim_options or {})
    if name == "density":
        return DensityMatrixBackend(program_cache=options.get("program_cache"))
    if name == "statevector":
        kwargs = {"seed": seed, "max_workers": max_workers, **options}
        if trajectories is not None:
            kwargs["trajectories"] = trajectories
        return StatevectorTrajectoryBackend(**kwargs)
    # The MPS engine shares the program cache but not the dense fusion
    # knobs (fusion would change its truncation sequence).
    options.pop("fuse", None)
    options.pop("fuse2q", None)
    kwargs = {"seed": seed, "max_workers": max_workers, **options}
    if trajectories is not None:
        kwargs["trajectories"] = trajectories
    if max_bond is not None:
        kwargs["max_bond"] = max_bond
    return MPSBackend(**kwargs)


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
    fuse: bool = True,
    fuse2q: bool = True,
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

    ``fuse``/``fuse2q`` configure the statevector engine's gate fusion
    (see :mod:`repro.sim.program`); ``program_cache`` injects a private
    compiled-program cache, for every engine, in place of the
    process-wide shared one.
    """
    sim_options = {
        "fuse": fuse,
        "fuse2q": fuse2q,
        "program_cache": program_cache,
    }
    canonical = _ALIASES.get(backend, backend)
    if canonical != "auto":
        if canonical not in ("density", "statevector", "mps"):
            raise ValueError(
                f"unknown backend {backend!r}; pick from {BACKEND_NAMES}"
            )
        chosen = _make(
            canonical, trajectories, max_bond, seed, max_workers, sim_options
        )
        if not chosen.supports(n_qubits, is_noisy(noise)):
            raise ValueError(
                f"backend {canonical!r} cannot simulate {n_qubits} qubits"
            )
        return chosen
    noisy = is_noisy(noise)
    density = _make(
        "density", trajectories, max_bond, seed, max_workers, sim_options
    )
    statevec = _make(
        "statevector", trajectories, max_bond, seed, max_workers, sim_options
    )
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
    return _make("mps", trajectories, max_bond, seed, max_workers, sim_options)


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
