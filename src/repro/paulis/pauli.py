"""Pauli strings: the term language of the Hamiltonian benchmarks."""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

_PAULI_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class PauliString:
    """A tensor product of Paulis, e.g. ``PauliString("XIZY")``."""

    label: str

    def __post_init__(self):
        if not self.label or any(c not in "IXYZ" for c in self.label):
            raise ValueError(f"invalid Pauli label {self.label!r}")

    @property
    def n_qubits(self) -> int:
        return len(self.label)

    @property
    def support(self) -> tuple[int, ...]:
        """Qubits on which the string acts nontrivially."""
        return tuple(i for i, c in enumerate(self.label) if c != "I")

    @property
    def weight(self) -> int:
        return len(self.support)

    def is_diagonal(self) -> bool:
        """True for Z/I-only strings (classical Hamiltonian terms)."""
        return all(c in "IZ" for c in self.label)

    def matrix(self) -> np.ndarray:
        """Dense matrix; qubit 0 is the most significant tensor factor."""
        return reduce(np.kron, (_PAULI_MATS[c] for c in self.label))

    def __str__(self) -> str:
        return self.label


def pauli_matrix(label: str) -> np.ndarray:
    return PauliString(label).matrix()
