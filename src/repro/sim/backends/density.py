"""The exact density-matrix engine behind the backend protocol.

Exact open-system evolution with explicit Kraus sums, 4^n memory,
hard-guarded at ``max_qubits`` (default 12, the paper's
fidelity-evaluation cutoff).  It is the ground truth the stochastic
engines are validated against.

Like the other two engines it runs a compiled
:class:`~repro.sim.program.SimProgram` rather than the circuit: the
flat, unfused program the MPS engine uses (same cache entry), whose
operators act on the ket and bra axes of the rank-2n state tensor and
whose noise events each apply their Kraus sum.  No fusion, so every
state is float-for-float the gate-by-gate evolution.
"""

from __future__ import annotations

import time

import numpy as np

from repro.circuits.circuit import Circuit
from repro.sim.backends.base import (
    _ITEMSIZE,
    SimulationResult,
    SimulatorBackend,
    reference_statevector,
)
from repro.sim.noise import NoiseModel
from repro.sim.program import ProgramCache, default_program_cache


class DensityMatrixResult(SimulationResult):
    """Exact mixed state: fidelity is <psi|rho|psi> with no sampling."""

    backend = "density"

    def __init__(self, rho: np.ndarray, n_qubits: int, wall_time: float):
        self.rho = rho
        self.n_qubits = n_qubits
        self.wall_time = wall_time

    def fidelity(self, reference) -> float:
        psi = reference_statevector(reference, self.n_qubits)
        return float(np.real(psi.conj() @ self.rho @ psi))

    def statevector(self) -> np.ndarray:
        """Dominant eigenvector — valid only for (near-)pure states."""
        vals, vecs = np.linalg.eigh(self.rho)
        if vals[-1] < 1.0 - 1e-9:
            raise ValueError(
                "density matrix is mixed; no single statevector exists"
            )
        return np.ascontiguousarray(vecs[:, -1])


def _apply_operator(
    rho: np.ndarray, m: np.ndarray, axes: list[int]
) -> np.ndarray:
    """Contract a local operator into ket axes (0..n-1) or bra axes (n..2n-1)."""
    k = len(axes)
    m = m.reshape((2,) * (2 * k))
    rho = np.tensordot(m, rho, axes=(list(range(k, 2 * k)), axes))
    return np.moveaxis(rho, list(range(k)), axes)


class DensityMatrixBackend(SimulatorBackend):
    """Exact density-matrix simulation (4^n memory, <= max_qubits)."""

    name = "density"

    def __init__(
        self,
        max_qubits: int = 12,
        program_cache: ProgramCache | None = None,
    ):
        self.max_qubits = max_qubits
        self.program_cache = program_cache

    def supports(self, n_qubits: int, noisy: bool) -> bool:
        return n_qubits <= self.max_qubits

    def memory_bytes(self, n_qubits: int, noisy: bool = True) -> int:
        return _ITEMSIZE * 4**n_qubits

    def run(
        self, circuit: Circuit, noise: NoiseModel | None = None
    ) -> DensityMatrixResult:
        start = time.monotonic()
        n = circuit.n_qubits
        if n > self.max_qubits:
            raise ValueError(
                f"density-matrix simulation of {n} qubits refused "
                f"(limit {self.max_qubits})"
            )
        cache = self.program_cache
        if cache is None:
            cache = default_program_cache()
        program = cache.get(
            circuit, noise, layered=False, fuse=False, fuse2q=False,
        )
        dim = 2**n
        rho = np.zeros((dim, dim), dtype=complex)
        rho[0, 0] = 1.0
        rho = rho.reshape((2,) * (2 * n))
        for ops, events in program.layers:
            for op in ops:
                ket = list(op.qubits)
                bra = [n + q for q in op.qubits]
                rho = _apply_operator(rho, op.matrix, ket)
                rho = _apply_operator(rho, op.matrix.conj(), bra)
            for ev in events:
                total = None
                for k in ev.kraus:
                    term = _apply_operator(rho, k, [ev.qubit])
                    term = _apply_operator(term, k.conj(), [n + ev.qubit])
                    total = term if total is None else total + term
                rho = total
        return DensityMatrixResult(
            rho.reshape(dim, dim), n, time.monotonic() - start
        )
