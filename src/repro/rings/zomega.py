"""The ring Z[omega] of cyclotomic integers, omega = exp(i pi / 4).

Elements are written ``a*w^3 + b*w^2 + c*w + d`` with integer
coefficients, where ``w^4 = -1``.  Clifford+T matrix entries are
elements of ``Z[omega] / sqrt(2)^k`` (:class:`DOmega`).

Structure used throughout the synthesis stack:

* ``conj``    — complex conjugation (w -> w^-1 = -w^3),
* ``adj2``    — the sqrt(2)-Galois automorphism (w -> w^3),
* ``norm_zs2``— |x|^2 = x * conj(x), a real element of Z[sqrt(2)],
* ``norm``    — the full rational norm N(x) = |x|^2 * adj2(|x|^2) in Z,
* Euclidean division and gcd (Z[omega] is norm-Euclidean),
* ``sqrt2 = w - w^3`` so divisibility by sqrt(2) is an exact test.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from repro.rings.zsqrt2 import ZSqrt2

_OMEGA_COMPLEX = cmath.exp(1j * math.pi / 4)


@dataclass(frozen=True)
class ZOmega:
    """Cyclotomic integer ``a*w^3 + b*w^2 + c*w + d`` (w = exp(i pi/4))."""

    a: int
    b: int
    c: int
    d: int

    # -- ring operations ------------------------------------------------
    def __add__(self, other: "ZOmega | int") -> "ZOmega":
        other = _coerce(other)
        return ZOmega(
            self.a + other.a, self.b + other.b, self.c + other.c, self.d + other.d
        )

    def __radd__(self, other: int) -> "ZOmega":
        return self.__add__(other)

    def __sub__(self, other: "ZOmega | int") -> "ZOmega":
        other = _coerce(other)
        return ZOmega(
            self.a - other.a, self.b - other.b, self.c - other.c, self.d - other.d
        )

    def __rsub__(self, other: int) -> "ZOmega":
        return _coerce(other) - self

    def __neg__(self) -> "ZOmega":
        return ZOmega(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, other: "ZOmega | int") -> "ZOmega":
        other = _coerce(other)
        a, b, c, d = self.a, self.b, self.c, self.d
        e, f, g, h = other.a, other.b, other.c, other.d
        # Polynomial product modulo w^4 = -1.
        return ZOmega(
            a * h + b * g + c * f + d * e,
            b * h + c * g + d * f - a * e,
            c * h + d * g - a * f - b * e,
            d * h - a * g - b * f - c * e,
        )

    def __rmul__(self, other: int) -> "ZOmega":
        return self.__mul__(other)

    def __pow__(self, n: int) -> "ZOmega":
        if n < 0:
            raise ValueError("negative powers are not closed in Z[omega]")
        result = ZOmega(0, 0, 0, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- structure --------------------------------------------------------
    def conj(self) -> "ZOmega":
        """Complex conjugation: w -> -w^3."""
        return ZOmega(-self.c, -self.b, -self.a, self.d)

    def adj2(self) -> "ZOmega":
        """sqrt(2)-conjugation (Galois automorphism w -> w^3)."""
        return ZOmega(self.c, -self.b, self.a, self.d)

    def norm_zs2(self) -> ZSqrt2:
        """|x|^2 = x * conj(x), as an exact element of Z[sqrt(2)]."""
        return (self * self.conj()).to_zsqrt2()

    def to_zsqrt2(self) -> ZSqrt2:
        """Convert a *real* cyclotomic integer to Z[sqrt(2)].

        A real element has b == 0 and a == -c, representing d + c*sqrt(2)
        since sqrt(2) = w - w^3.  Raises for non-real elements.
        """
        if self.b != 0 or self.a != -self.c:
            raise ArithmeticError(f"element is not real: {self}")
        return ZSqrt2(self.d, self.c)

    def norm(self) -> int:
        """Full rational norm N(x) in Z (nonnegative, multiplicative)."""
        return self.norm_zs2().norm()

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0 and self.c == 0 and self.d == 0

    # -- sqrt(2) divisibility ---------------------------------------------
    def mul_sqrt2(self) -> "ZOmega":
        """Multiply by sqrt(2) = w - w^3."""
        return ZOmega(
            self.b - self.d, self.a + self.c, self.b + self.d, self.c - self.a
        )

    def is_divisible_by_sqrt2(self) -> bool:
        return (self.a + self.c) % 2 == 0 and (self.b + self.d) % 2 == 0

    def div_sqrt2(self) -> "ZOmega":
        """Exact division by sqrt(2); raises when not divisible."""
        if not self.is_divisible_by_sqrt2():
            raise ValueError(f"{self} not divisible by sqrt(2)")
        # x / sqrt(2) = x * sqrt(2) / 2
        y = self.mul_sqrt2()
        return ZOmega(y.a // 2, y.b // 2, y.c // 2, y.d // 2)

    # -- Euclidean division -------------------------------------------------
    def divmod(self, other: "ZOmega") -> tuple["ZOmega", "ZOmega"]:
        """Euclidean division with |N(r)| < |N(other)| (norm-Euclidean)."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero in Z[omega]")
        n = other.norm()
        # 1/other = conj(other) * adj2(|other|^2 as Z[omega]) / N(other)
        s = other.norm_zs2()  # |other|^2 in Z[sqrt2]
        s_adj = ZOmega(-s.b, 0, s.b, s.a).adj2()  # embed then conjugate
        num = self * other.conj() * s_adj
        q = ZOmega(
            _round_div(num.a, n),
            _round_div(num.b, n),
            _round_div(num.c, n),
            _round_div(num.d, n),
        )
        r = self - q * other
        return q, r

    def __floordiv__(self, other: "ZOmega") -> "ZOmega":
        return self.divmod(other)[0]

    def __mod__(self, other: "ZOmega") -> "ZOmega":
        return self.divmod(other)[1]

    def divides(self, other: "ZOmega") -> bool:
        if self.is_zero():
            return other.is_zero()
        return other.divmod(self)[1].is_zero()

    def exact_div(self, other: "ZOmega") -> "ZOmega":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError(f"{self} not divisible by {other}")
        return q

    # -- numeric views ------------------------------------------------------
    def __complex__(self) -> complex:
        w = _OMEGA_COMPLEX
        return self.a * w**3 + self.b * w**2 + self.c * w + self.d

    def real(self) -> float:
        return self.d + (self.c - self.a) / math.sqrt(2.0)

    def imag(self) -> float:
        return self.b + (self.c + self.a) / math.sqrt(2.0)

    def __repr__(self) -> str:
        return f"ZOmega({self.a}, {self.b}, {self.c}, {self.d})"

    @staticmethod
    def from_zsqrt2(x: ZSqrt2) -> "ZOmega":
        """Embed a + b*sqrt(2) as a real cyclotomic integer."""
        return ZOmega(-x.b, 0, x.b, x.a)

    @staticmethod
    def omega_power(n: int) -> "ZOmega":
        """w^n for any integer n (w^8 = 1)."""
        n %= 8
        sign = 1 if n < 4 else -1
        n %= 4
        coeffs = [0, 0, 0, 0]
        coeffs[3 - n] = sign
        return ZOmega(coeffs[0], coeffs[1], coeffs[2], coeffs[3])


def _coerce(x: "ZOmega | int") -> ZOmega:
    if isinstance(x, ZOmega):
        return x
    if isinstance(x, int):
        return ZOmega(0, 0, 0, x)
    raise TypeError(f"cannot coerce {type(x).__name__} to ZOmega")


def _round_div(num: int, den: int) -> int:
    if den < 0:
        num, den = -num, -den
    return (2 * num + den) // (2 * den)


def gcd(x: ZOmega, y: ZOmega) -> ZOmega:
    """Greatest common divisor in Z[omega] (defined up to a unit)."""
    while not y.is_zero():
        _, r = x.divmod(y)
        x, y = y, r
    return x


ONE = ZOmega(0, 0, 0, 1)
OMEGA = ZOmega(0, 0, 1, 0)
SQRT2_OMEGA = ZOmega(-1, 0, 1, 0)  # sqrt(2) = w - w^3
DELTA = ZOmega(0, 0, 1, 1)  # 1 + w; delta^dag * delta = lambda * sqrt(2)


@dataclass(frozen=True)
class DOmega:
    """Element ``z / sqrt(2)^k`` with z in Z[omega], in lowest terms.

    This is the exact representation of Clifford+T matrix entries.  The
    reduced denominator exponent ``k`` is the entry's *sde* (smallest
    denominator exponent), the quantity exact synthesis drives to zero.
    """

    z: ZOmega
    k: int

    @staticmethod
    def make(z: ZOmega, k: int) -> "DOmega":
        """Construct in lowest terms (divide out common sqrt(2) factors)."""
        while k > 0 and z.is_divisible_by_sqrt2():
            z = z.div_sqrt2()
            k -= 1
        if z.is_zero():
            k = 0
        return DOmega(z, k)

    def with_denom_exp(self, k: int) -> ZOmega:
        """Numerator when written over denominator sqrt(2)^k (k >= self.k)."""
        if k < self.k:
            raise ValueError("requested denominator exponent too small")
        z = self.z
        for _ in range(k - self.k):
            z = z.mul_sqrt2()
        return z

    def __add__(self, other: "DOmega") -> "DOmega":
        k = max(self.k, other.k)
        return DOmega.make(self.with_denom_exp(k) + other.with_denom_exp(k), k)

    def __sub__(self, other: "DOmega") -> "DOmega":
        k = max(self.k, other.k)
        return DOmega.make(self.with_denom_exp(k) - other.with_denom_exp(k), k)

    def __neg__(self) -> "DOmega":
        return DOmega(-self.z, self.k)

    def __mul__(self, other: "DOmega") -> "DOmega":
        return DOmega.make(self.z * other.z, self.k + other.k)

    def conj(self) -> "DOmega":
        return DOmega(self.z.conj(), self.k)

    def adj2(self) -> "DOmega":
        """sqrt(2)-conjugate; flips the sign of odd denominator powers."""
        z = self.z.adj2()
        if self.k % 2 == 1:
            z = -z
        return DOmega(z, self.k)

    def is_zero(self) -> bool:
        return self.z.is_zero()

    def __complex__(self) -> complex:
        return complex(self.z) / math.sqrt(2.0) ** self.k

    def __repr__(self) -> str:
        return f"DOmega({self.z!r}, k={self.k})"
