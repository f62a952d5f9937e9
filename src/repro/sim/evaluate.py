"""Circuit-level fidelity evaluation dispatched through the backends.

The one entry point the experiment harness (RQ3/RQ4), the workflows
module, and the CLI all share: simulate a circuit under optional noise
with :func:`repro.sim.backends.select_backend`, build a noiseless
reference in a compatible representation, and report the fidelity
between them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuits.circuit import Circuit
from repro.sim.backends import select_backend
from repro.sim.noise import NoiseModel


@dataclass
class FidelityEvaluation:
    """Outcome of one backend-dispatched fidelity evaluation."""

    backend: str
    n_qubits: int
    fidelity: float
    std_error: float | None
    n_trajectories: int
    wall_time: float
    truncation_error: float = 0.0

    @property
    def infidelity(self) -> float:
        return max(0.0, 1.0 - self.fidelity)

    def summary(self) -> str:
        parts = [
            f"backend={self.backend}",
            f"n_qubits={self.n_qubits}",
            f"fidelity={self.fidelity:.6f}",
        ]
        if self.std_error is not None:
            parts.append(f"+/-{self.std_error:.1e}")
        if self.n_trajectories > 1:
            parts.append(f"trajectories={self.n_trajectories}")
        if self.truncation_error > 0:
            parts.append(f"truncated_weight={self.truncation_error:.1e}")
        parts.append(f"{self.wall_time:.3f}s")
        return " ".join(parts)


def make_reference_state(
    reference: Circuit,
    sim,
):
    """Noiseless reference in the representation ``sim`` scores best.

    A dense statevector for the density/statevector engines; a
    noiseless MPS run of the same bond budget for the MPS engine
    (keeping the overlap contraction cheap at 20+ qubits).  The return
    value can be passed to :func:`evaluate_fidelity` as
    ``reference_state`` to amortize the reference simulation over many
    evaluations against the same ideal circuit.
    """
    return sim.make_reference(reference)


def evaluate_fidelity(
    circuit: Circuit,
    reference: Circuit | None = None,
    noise: NoiseModel | None = None,
    *,
    backend: str = "auto",
    trajectories: int | None = None,
    max_bond: int | None = None,
    seed: int = 0,
    max_workers: int | None = None,
    reference_state=None,
    fuse: bool = True,
    fuse2q: bool = True,
    program_cache=None,
) -> FidelityEvaluation:
    """Fidelity of ``circuit`` (under ``noise``) against ``reference``.

    ``reference`` defaults to the circuit itself — i.e. "how much
    fidelity does this circuit lose to noise".  For synthesis
    evaluation pass the original (pre-synthesis) circuit as the
    reference and the synthesized circuit as ``circuit``.

    The reference is simulated noiselessly via
    :func:`make_reference_state` unless a precomputed
    ``reference_state`` (dense vector or ``CircuitMPS``) is supplied —
    callers scoring many circuits against one ideal state should
    precompute it once.

    ``fuse``/``fuse2q``/``program_cache`` configure the stochastic
    engines' JIT-compiled programs (see :mod:`repro.sim.program`); the
    defaults give the fast path.
    """
    if reference is None:
        reference = circuit
    if reference.n_qubits != circuit.n_qubits:
        raise ValueError("reference and circuit qubit counts differ")
    sim = select_backend(
        circuit.n_qubits,
        noise,
        backend=backend,
        trajectories=trajectories,
        max_bond=max_bond,
        seed=seed,
        max_workers=max_workers,
        fuse=fuse,
        fuse2q=fuse2q,
        program_cache=program_cache,
    )
    ref_state = reference_state
    if ref_state is None:
        ref_state = make_reference_state(reference, sim)
    result = sim.run(circuit, noise)
    return FidelityEvaluation(
        backend=result.backend,
        n_qubits=circuit.n_qubits,
        fidelity=result.fidelity(ref_state),
        std_error=result.fidelity_std_error(ref_state),
        n_trajectories=result.n_trajectories,
        wall_time=result.wall_time,
        truncation_error=getattr(result, "truncation_error", 0.0),
    )
