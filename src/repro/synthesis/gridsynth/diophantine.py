"""Solving the norm equation t^dag t = xi over Z[omega] (Ross-Selinger §6).

Given a doubly-positive ``xi`` in Z[sqrt(2)], the completion of a grid
candidate ``u`` to a unitary requires ``t`` with ``t * conj(t) = xi``.
The solver factors the rational norm ``N(xi)``, lifts each prime to
Z[sqrt(2)] and then to Z[omega] according to its residue class mod 8:

* ``p = 2``            — xi contains powers of sqrt(2); lift via delta = 1 + omega.
* ``p = +-1 (mod 8)``  — p splits in Z[sqrt(2)]; each factor splits again in
  Z[omega] (found with gcd against ``x - i`` where ``x^2 = -1 mod p``).
* ``p = 3 (mod 8)``    — p inert in Z[sqrt(2)] but splits as s * conj(s)
  (gcd against ``x - i sqrt(2)`` where ``x^2 = -2 mod p``).
* ``p = 5, 7 (mod 8)`` — the prime must divide xi to even order and lifts
  as a rational/real power.

Residual units are doubly positive, hence even powers of lambda, and are
absorbed by multiplying ``t`` with lambda^(j).  Failure at any step
(including a factoring work-bound) returns None and the synthesis loop
moves on to the next candidate — the same behaviour as gridsynth.
"""

from __future__ import annotations

import math

from repro.rings import zomega as zo
from repro.rings import zsqrt2 as zs2
from repro.rings.zomega import DELTA, SQRT2_OMEGA, ZOmega
from repro.rings.zsqrt2 import LAMBDA, LAMBDA_INV, SQRT2, ZSqrt2
from repro.synthesis.gridsynth.number_theory import (
    factorize,
    sqrt_mod_prime,
)

_I_OMEGA = ZOmega(0, 1, 0, 0)  # omega^2 = i


def solve_norm_equation(xi: ZSqrt2, factor_steps: int = 200_000) -> ZOmega | None:
    """Find t in Z[omega] with conj(t) * t == xi, or None.

    ``xi`` must be doubly positive; the function verifies its output, so
    a non-None return value is always correct.
    """
    if xi.is_zero():
        return ZOmega(0, 0, 0, 0)
    if not xi.is_doubly_positive():
        return None
    n = xi.norm()
    if n < 0:
        return None
    factors = factorize(n, max_steps=factor_steps)
    if factors is None:
        return None
    t = ZOmega(0, 0, 0, 1)
    remaining = xi
    for p, exp in sorted(factors.items()):
        lifted = _lift_prime(p, exp, remaining)
        if lifted is None:
            return None
        t_part, remaining = lifted
        t = t * t_part
    # remaining is now a unit; doubly positive => even power of lambda.
    unit_fix = _unit_sqrt(xi, t)
    if unit_fix is None:
        return None
    t = t * unit_fix
    if (t.conj() * t).to_zsqrt2() == xi:
        return t
    return None


def _lift_prime(
    p: int, n_exp: int, xi: ZSqrt2
) -> tuple[ZOmega, ZSqrt2] | None:
    """Remove every factor above ``p`` from xi; return (t_part, reduced xi)."""
    if p == 2:
        return _lift_two(xi)
    r = p % 8
    if r in (1, 7):
        return _lift_split(p, xi)
    if r == 3:
        return _lift_three(p, xi)
    # r == 5: inert in Z[sqrt2] but splits in Z[i] (-1 is a QR mod p).
    return _lift_five(p, xi)


def _extract(xi: ZSqrt2, eta: ZSqrt2) -> tuple[int, ZSqrt2]:
    """Largest e with eta^e | xi, plus the quotient."""
    e = 0
    while True:
        q, r = xi.divmod(eta)
        if not r.is_zero():
            return e, xi
        xi = q
        e += 1


def _lift_two(xi: ZSqrt2) -> tuple[ZOmega, ZSqrt2] | None:
    e, reduced = _extract(xi, SQRT2)
    # sqrt(2) = unit * conj(delta) delta with delta = 1 + omega.
    return DELTA**e, reduced


def _lift_split(p: int, xi: ZSqrt2) -> tuple[ZOmega, ZSqrt2] | None:
    """p = +-1 or 7 (mod 8): p splits in Z[sqrt2] as eta * eta_conj."""
    r2 = sqrt_mod_prime(2, p)
    if r2 is None:
        return None
    eta = zs2.gcd(ZSqrt2(p, 0), ZSqrt2(r2, 1))
    if abs(eta.norm()) != p:
        eta = zs2.gcd(ZSqrt2(p, 0), ZSqrt2(r2, -1))
        if abs(eta.norm()) != p:
            return None
    eta_conj = eta.conj()
    e1, xi = _extract(xi, eta)
    e2, xi = _extract(xi, eta_conj)
    if p % 8 == 7:
        # eta does not split in Z[omega]; exponents must be even.
        if e1 % 2 or e2 % 2:
            return None
        t = ZOmega.from_zsqrt2(eta ** (e1 // 2) * eta_conj ** (e2 // 2))
        return t, xi
    # p = +-1 (mod 8): eta = conj(s) s up to unit, with s = gcd(eta, x - i).
    x = sqrt_mod_prime(p - 1, p)
    if x is None:
        return None
    s = zo.gcd(ZOmega.from_zsqrt2(eta), ZOmega(0, -1, 0, x))
    if abs(s.norm()) != p:
        return None
    s_conj_adj = s.adj2()
    t = s**e1 * s_conj_adj**e2
    return t, xi


def _lift_three(p: int, xi: ZSqrt2) -> tuple[ZOmega, ZSqrt2] | None:
    """p = 3 (mod 8): inert in Z[sqrt2], splits in Z[omega] via -2 root."""
    e, xi = _extract(xi, ZSqrt2(p, 0))
    if e == 0:
        return ZOmega(0, 0, 0, 1), xi
    x = sqrt_mod_prime(p - 2, p)  # x^2 = -2 (mod p)
    if x is None:
        return None
    target = ZOmega(0, 0, 0, x) - _I_OMEGA * SQRT2_OMEGA
    s = zo.gcd(ZOmega(0, 0, 0, p), target)
    if abs(s.norm()) != p * p:
        return None
    return s**e, xi


def _lift_five(p: int, xi: ZSqrt2) -> tuple[ZOmega, ZSqrt2] | None:
    """p = 5 (mod 8): inert in Z[sqrt2]; lift via a Gaussian prime a + bi."""
    e, xi = _extract(xi, ZSqrt2(p, 0))
    if e == 0:
        return ZOmega(0, 0, 0, 1), xi
    x = sqrt_mod_prime(p - 1, p)  # x^2 = -1 (mod p)
    if x is None:
        return None
    s = zo.gcd(ZOmega(0, 0, 0, p), ZOmega(0, 0, 0, x) - _I_OMEGA)
    if abs(s.norm()) != p * p:
        return None
    return s**e, xi


def _unit_sqrt(xi: ZSqrt2, t: ZOmega) -> ZOmega | None:
    """Unit v with (t v)^dag (t v) == xi, assuming t is correct up to a unit."""
    tt = (t.conj() * t).to_zsqrt2()
    if tt.is_zero():
        return None
    try:
        u = xi.exact_div(tt)
    except ValueError:
        return None
    if not u.is_doubly_positive() or abs(u.norm()) != 1:
        return None
    fu = float(u)
    if fu <= 0:
        return None
    j2 = round(math.log(fu) / math.log(1.0 + math.sqrt(2.0)))
    if j2 % 2:
        return None
    j = j2 // 2
    lam_j = (LAMBDA if j >= 0 else LAMBDA_INV) ** abs(j)
    if lam_j * lam_j != u:
        return None
    return ZOmega.from_zsqrt2(lam_j)
