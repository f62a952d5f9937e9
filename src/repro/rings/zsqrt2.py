"""The ring Z[sqrt(2)] of quadratic integers a + b*sqrt(2).

This ring underpins the one-dimensional grid problems of gridsynth and
the Diophantine norm-equation solver.  Key structure:

* Galois conjugation ``x.conj()`` sends sqrt(2) -> -sqrt(2).
* The rational norm ``N(x) = x * x.conj() = a^2 - 2 b^2`` is an integer
  and is multiplicative, making Z[sqrt(2)] a Euclidean domain.
* The fundamental unit is ``LAMBDA = 1 + sqrt(2)`` with inverse
  ``-LAMBDA.conj() = sqrt(2) - 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ZSqrt2:
    """Element ``a + b * sqrt(2)`` with integer ``a``, ``b``."""

    a: int
    b: int

    # -- ring operations ------------------------------------------------
    def __add__(self, other: "ZSqrt2 | int") -> "ZSqrt2":
        other = _coerce(other)
        return ZSqrt2(self.a + other.a, self.b + other.b)

    def __radd__(self, other: int) -> "ZSqrt2":
        return self.__add__(other)

    def __sub__(self, other: "ZSqrt2 | int") -> "ZSqrt2":
        other = _coerce(other)
        return ZSqrt2(self.a - other.a, self.b - other.b)

    def __rsub__(self, other: int) -> "ZSqrt2":
        return _coerce(other) - self

    def __neg__(self) -> "ZSqrt2":
        return ZSqrt2(-self.a, -self.b)

    def __mul__(self, other: "ZSqrt2 | int") -> "ZSqrt2":
        other = _coerce(other)
        return ZSqrt2(
            self.a * other.a + 2 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    def __rmul__(self, other: int) -> "ZSqrt2":
        return self.__mul__(other)

    def __pow__(self, n: int) -> "ZSqrt2":
        if n < 0:
            raise ValueError("negative power: invert a unit with LAMBDA_INV")
        result = ZSqrt2(1, 0)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- structure ------------------------------------------------------
    def conj(self) -> "ZSqrt2":
        """Galois conjugate: sqrt(2) -> -sqrt(2)."""
        return ZSqrt2(self.a, -self.b)

    def norm(self) -> int:
        """Rational norm N(x) = a^2 - 2 b^2 (multiplicative)."""
        return self.a * self.a - 2 * self.b * self.b

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_doubly_positive(self) -> bool:
        """True when both embeddings are nonnegative (x >= 0 and x.conj() >= 0)."""
        return not self.is_negative() and not self.conj().is_negative()

    def is_negative(self) -> bool:
        """Exact sign test of the real embedding a + b*sqrt(2) < 0."""
        if self.a >= 0 and self.b >= 0:
            return False
        if self.a <= 0 and self.b <= 0:
            return not self.is_zero()
        # Mixed signs: compare a^2 with 2 b^2 carefully.
        if self.a > 0:  # b < 0: negative iff 2 b^2 > a^2
            return 2 * self.b * self.b > self.a * self.a
        # a < 0, b > 0: negative iff a^2 > 2 b^2
        return self.a * self.a > 2 * self.b * self.b

    def sign(self) -> int:
        if self.is_zero():
            return 0
        return -1 if self.is_negative() else 1

    # -- Euclidean division ---------------------------------------------
    def divmod(self, other: "ZSqrt2") -> tuple["ZSqrt2", "ZSqrt2"]:
        """Euclidean division: q, r with self = q*other + r, |N(r)| < |N(other)|."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero in Z[sqrt2]")
        n = other.norm()
        num = self * other.conj()
        qa = _round_div(num.a, n)
        qb = _round_div(num.b, n)
        q = ZSqrt2(qa, qb)
        r = self - q * other
        return q, r

    def __floordiv__(self, other: "ZSqrt2") -> "ZSqrt2":
        return self.divmod(other)[0]

    def __mod__(self, other: "ZSqrt2") -> "ZSqrt2":
        return self.divmod(other)[1]

    def divides(self, other: "ZSqrt2") -> bool:
        """True when self divides other exactly."""
        if self.is_zero():
            return other.is_zero()
        _, r = other.divmod(self)
        return r.is_zero()

    def exact_div(self, other: "ZSqrt2") -> "ZSqrt2":
        """Exact quotient; raises ValueError when not divisible."""
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError(f"{self} not divisible by {other}")
        return q

    # -- numeric views ---------------------------------------------------
    def __float__(self) -> float:
        return self.a + self.b * math.sqrt(2.0)

    def __repr__(self) -> str:
        return f"ZSqrt2({self.a}, {self.b})"


def _coerce(x: "ZSqrt2 | int") -> ZSqrt2:
    if isinstance(x, ZSqrt2):
        return x
    if isinstance(x, int):
        return ZSqrt2(x, 0)
    raise TypeError(f"cannot coerce {type(x).__name__} to ZSqrt2")


def _round_div(num: int, den: int) -> int:
    """Round num/den to the nearest integer (den may be negative)."""
    if den < 0:
        num, den = -num, -den
    return (2 * num + den) // (2 * den)


SQRT2 = ZSqrt2(0, 1)
LAMBDA = ZSqrt2(1, 1)
LAMBDA_INV = ZSqrt2(-1, 1)  # sqrt(2) - 1 == LAMBDA**-1


def gcd(x: ZSqrt2, y: ZSqrt2) -> ZSqrt2:
    """Greatest common divisor via the Euclidean algorithm."""
    while not y.is_zero():
        _, r = x.divmod(y)
        x, y = y, r
    return x
