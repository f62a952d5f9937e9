"""Exact density-matrix simulation with per-gate Kraus noise.

The density matrix is stored as a rank-2n tensor (ket axes then bra
axes); gates act on both sides and Kraus channels — depolarizing unless
the model supplies its own factory — are summed explicitly.
Memory is 4^n complex entries, so the simulator guards at 12 qubits —
matching the paper's fidelity-evaluation cutoff.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.circuit import Circuit, Gate
from repro.sim.noise import NoiseModel, depolarizing_kraus


class DensityMatrixSimulator:
    """Runs circuits under an optional :class:`NoiseModel`."""

    def __init__(self, n_qubits: int, max_qubits: int = 12):
        if n_qubits > max_qubits:
            raise ValueError(
                f"density-matrix simulation of {n_qubits} qubits refused "
                f"(limit {max_qubits})"
            )
        self.n = n_qubits
        dim = 2**n_qubits
        rho = np.zeros((dim, dim), dtype=complex)
        rho[0, 0] = 1.0
        self._rho = rho.reshape((2,) * (2 * n_qubits))

    # -- state access -----------------------------------------------------
    @property
    def rho(self) -> np.ndarray:
        dim = 2**self.n
        return self._rho.reshape(dim, dim)

    def set_state(self, rho: np.ndarray) -> None:
        rho = np.asarray(rho, dtype=complex)
        dim = 2**self.n
        if rho.shape != (dim, dim):
            raise ValueError(
                f"expected a square ({dim}, {dim}) density matrix for "
                f"{self.n} qubits, got shape {rho.shape}"
            )
        trace = complex(np.trace(rho))
        if abs(trace - 1.0) > 1e-8:
            raise ValueError(
                f"density matrix must have unit trace, got {trace:.6g}"
            )
        self._rho = rho.reshape((2,) * (2 * self.n))

    # -- evolution -----------------------------------------------------------
    def apply_gate(self, gate: Gate) -> None:
        m = gate.matrix()
        qubits = gate.qubits
        self._rho = _apply_operator(self._rho, m, qubits, self.n, side="ket")
        self._rho = _apply_operator(
            self._rho, m.conj(), qubits, self.n, side="bra"
        )

    def apply_kraus_1q(self, kraus: list[np.ndarray], qubit: int) -> None:
        total = None
        for k in kraus:
            term = _apply_operator(self._rho, k, (qubit,), self.n, side="ket")
            term = _apply_operator(term, k.conj(), (qubit,), self.n, side="bra")
            total = term if total is None else total + term
        self._rho = total

    def run(self, circuit: Circuit, noise: NoiseModel | None = None) -> np.ndarray:
        if circuit.n_qubits != self.n:
            raise ValueError("circuit size mismatch")
        factory = None
        if noise is not None:
            factory = noise.kraus or depolarizing_kraus
        for gate in circuit.gates:
            self.apply_gate(gate)
            if factory is not None:
                for q in noise.noisy_qubits(gate):
                    self.apply_kraus_1q(factory(noise.rate_for(gate)), q)
        return self.rho


def _apply_operator(
    rho: np.ndarray, m: np.ndarray, qubits: tuple[int, ...], n: int, side: str
) -> np.ndarray:
    """Contract a local operator into ket axes (0..n-1) or bra axes (n..2n-1)."""
    axes = [q if side == "ket" else n + q for q in qubits]
    k = len(qubits)
    m = m.reshape((2,) * (2 * k))
    rho = np.tensordot(m, rho, axes=(list(range(k, 2 * k)), axes))
    return np.moveaxis(rho, list(range(k)), axes)


def simulate_noisy(
    circuit: Circuit, noise: NoiseModel | None = None, max_qubits: int = 12
) -> np.ndarray:
    """Convenience wrapper: run ``circuit`` from |0..0> and return rho."""
    sim = DensityMatrixSimulator(circuit.n_qubits, max_qubits=max_qubits)
    return sim.run(circuit, noise)
