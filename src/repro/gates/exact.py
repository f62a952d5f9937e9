"""Exact 2x2 unitaries over the ring Z[omega] / sqrt(2)^k.

Every Clifford+T word has a matrix whose entries live in the ring
``D[omega]``.  :class:`ExactUnitary` stores the four numerators (in
Z[omega]) together with a *common* denominator exponent ``k`` so that
the matrix is ``M / sqrt(2)^k``.  This representation supports exact
products, exact equality up to the eight global phases ``omega^j``, and
is the input format of the exact synthesis algorithm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.rings.zomega import OMEGA, ZOmega

_W = [ZOmega.omega_power(j) for j in range(8)]

_ZERO = ZOmega(0, 0, 0, 0)
_ONE = ZOmega(0, 0, 0, 1)


@dataclass(frozen=True)
class ExactUnitary:
    """Matrix ``[[z00, z01], [z10, z11]] / sqrt(2)^k`` over Z[omega]."""

    z00: ZOmega
    z01: ZOmega
    z10: ZOmega
    z11: ZOmega
    k: int

    # -- constructors ------------------------------------------------------
    @staticmethod
    def identity() -> "ExactUnitary":
        return ExactUnitary(_ONE, _ZERO, _ZERO, _ONE, 0)

    @staticmethod
    def from_gate(name: str) -> "ExactUnitary":
        try:
            return EXACT_GATES[name]
        except KeyError:
            raise KeyError(f"no exact form for gate {name!r}") from None

    @staticmethod
    def from_gates(names) -> "ExactUnitary":
        """Matrix product of a gate-name sequence (matrix order, left to right)."""
        result = ExactUnitary.identity()
        for name in names:
            result = result @ ExactUnitary.from_gate(name)
        return result.reduce()

    # -- algebra -------------------------------------------------------------
    def __matmul__(self, other: "ExactUnitary") -> "ExactUnitary":
        a, b, c, d = self.z00, self.z01, self.z10, self.z11
        e, f, g, h = other.z00, other.z01, other.z10, other.z11
        return ExactUnitary(
            a * e + b * g,
            a * f + b * h,
            c * e + d * g,
            c * f + d * h,
            self.k + other.k,
        )

    def scale_phase(self, j: int) -> "ExactUnitary":
        """Multiply the whole matrix by the global phase omega^j."""
        w = _W[j % 8]
        return ExactUnitary(
            w * self.z00, w * self.z01, w * self.z10, w * self.z11, self.k
        )

    def dagger(self) -> "ExactUnitary":
        return ExactUnitary(
            self.z00.conj(), self.z10.conj(), self.z01.conj(), self.z11.conj(), self.k
        )

    def entries(self) -> tuple[ZOmega, ZOmega, ZOmega, ZOmega]:
        return (self.z00, self.z01, self.z10, self.z11)

    def reduce(self) -> "ExactUnitary":
        """Divide out common sqrt(2) factors so ``k`` is minimal (the sde)."""
        z = list(self.entries())
        k = self.k
        while k > 0 and all(e.is_divisible_by_sqrt2() for e in z):
            z = [e.div_sqrt2() for e in z]
            k -= 1
        return ExactUnitary(z[0], z[1], z[2], z[3], k)

    # -- canonical form up to global phase ------------------------------------
    def canonical_key(self) -> tuple:
        """Hashable key identifying the matrix up to a phase omega^j.

        The matrix is first reduced to lowest terms; the key is the
        lexicographically smallest coefficient tuple over the eight
        phase rotations, prefixed by the reduced denominator exponent.
        """
        r = self.reduce()
        ents = [(e.a, e.b, e.c, e.d) for e in r.entries()]
        best = None
        for _ in range(8):
            t = ents[0] + ents[1] + ents[2] + ents[3]
            if best is None or t < best:
                best = t
            # Multiplying by omega maps (a, b, c, d) to (b, c, d, -a).
            ents = [(b, c, d, -a) for a, b, c, d in ents]
        return (r.k,) + best

    def equals_up_to_phase(self, other: "ExactUnitary") -> bool:
        return self.canonical_key() == other.canonical_key()

    # -- numeric view -----------------------------------------------------------
    def to_matrix(self) -> np.ndarray:
        s = math.sqrt(2.0) ** self.k
        return (
            np.array(
                [
                    [complex(self.z00), complex(self.z01)],
                    [complex(self.z10), complex(self.z11)],
                ]
            )
            / s
        )

    def is_unitary(self) -> bool:
        """Exact unitarity test: M^dag M == 2^k * I."""
        m = self.dagger() @ self
        two_k = ZOmega(0, 0, 0, 1)
        for _ in range(self.k):
            two_k = two_k * 2
        return (
            m.z00 == two_k
            and m.z11 == two_k
            and m.z01.is_zero()
            and m.z10.is_zero()
        )


EXACT_GATES: dict[str, ExactUnitary] = {
    "I": ExactUnitary.identity(),
    "H": ExactUnitary(_ONE, _ONE, _ONE, -_ONE, 1),
    "T": ExactUnitary(_ONE, _ZERO, _ZERO, OMEGA, 0),
    "Tdg": ExactUnitary(_ONE, _ZERO, _ZERO, ZOmega.omega_power(7), 0),
    "S": ExactUnitary(_ONE, _ZERO, _ZERO, ZOmega.omega_power(2), 0),
    "Sdg": ExactUnitary(_ONE, _ZERO, _ZERO, ZOmega.omega_power(6), 0),
    "Z": ExactUnitary(_ONE, _ZERO, _ZERO, -_ONE, 0),
    "X": ExactUnitary(_ZERO, _ONE, _ONE, _ZERO, 0),
    "Y": ExactUnitary(
        _ZERO, -ZOmega.omega_power(2), ZOmega.omega_power(2), _ZERO, 0
    ),
    "W": ExactUnitary(OMEGA, _ZERO, _ZERO, OMEGA, 0),  # global phase omega
}
