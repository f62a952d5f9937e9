"""Gate-sequence representation shared by every synthesizer.

A sequence is a tuple of gate names in *matrix product order*: the
product ``seq[0] @ seq[1] @ ... @ seq[-1]`` is the synthesized operator.
(Circuit time order is the reverse; :meth:`GateSequence.circuit_order`
converts.)  Costs follow the paper's metrics: T count is the number of
T/Tdg gates, Clifford count excludes Pauli gates (free under error
correction).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from repro.linalg import GATES, trace_distance

_T_GATES = frozenset({"T", "Tdg"})
_CLIFFORD_GATES = frozenset({"H", "S", "Sdg"})


def t_count_of(gates) -> int:
    return sum(1 for g in gates if g in _T_GATES)


def clifford_count_of(gates) -> int:
    """Non-Pauli Clifford gates (H, S, Sdg) in the sequence."""
    return sum(1 for g in gates if g in _CLIFFORD_GATES)


def matrix_of(gates) -> np.ndarray:
    """Dense product of the named gates (matrix order)."""
    return reduce(lambda acc, g: acc @ GATES[g], gates, np.eye(2, dtype=complex))


@dataclass(frozen=True)
class GateSequence:
    """A synthesized Clifford+T approximation of a target unitary."""

    gates: tuple[str, ...]
    error: float  # unitary distance to the target (paper Eq. 2)

    @property
    def t_count(self) -> int:
        return t_count_of(self.gates)

    @property
    def clifford_count(self) -> int:
        return clifford_count_of(self.gates)

    def matrix(self) -> np.ndarray:
        return matrix_of(self.gates)

    def circuit_order(self) -> tuple[str, ...]:
        """Gate names in execution order (first applied first)."""
        return tuple(reversed(self.gates))

    def verify(self, target: np.ndarray, atol: float = 1e-6) -> bool:
        """Check the recorded error against a fresh computation."""
        return abs(trace_distance(target, self.matrix()) - self.error) <= atol
