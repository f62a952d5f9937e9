"""One- and two-dimensional grid problems for gridsynth (Ross-Selinger).

The Rz approximation task reduces to enumerating points ``u`` of the
scaled lattice ``Z[omega] / sqrt(2)^k`` that fall inside the epsilon
slice

    A = { u : |u| <= 1,  Re(conj(z) u) >= 1 - eps^2 / 2 },   z = e^{-i theta/2}

while the sqrt(2)-conjugate ``u^bullet`` falls in the unit disk (needed
for the norm equation to be solvable).  Splitting ``u`` into real and
imaginary parts turns this into two coupled one-dimensional grid
problems over ``(1/sqrt(2)) Z[sqrt(2)]`` with a parity constraint.

The 1D solver enumerates ``x = p + q sqrt(2)`` with ``x`` in interval I
and the conjugate in interval J; rescaling by the fundamental unit
``lambda = 1 + sqrt(2)`` balances the intervals so the enumeration is
output-sensitive (Ross-Selinger, Section 5).

Both scans run on plain ints, with the unit ``lambda^-m`` cached per
``m``; a ``ZSqrt2`` or ``ZOmega`` is built only for an accepted point.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator

from repro.rings.zomega import ZOmega
from repro.rings.zsqrt2 import LAMBDA, LAMBDA_INV, ZSqrt2

_SQRT2 = math.sqrt(2.0)
_LOG_LAMBDA = math.log(1.0 + _SQRT2)
_TOL = 1e-9


@functools.cache
def _unit(m: int) -> tuple[int, int]:
    """``lambda^-m`` as the coefficient pair ``(a, b)`` of ``a + b sqrt2``."""
    z = LAMBDA_INV**m if m >= 0 else LAMBDA ** (-m)
    return z.a, z.b


def _scan_1d(
    x0: float, x1: float, y0: float, y1: float
) -> list[tuple[int, int, float, float]]:
    """``(a, b, value, conj_value)`` of each ``a + b sqrt2`` in the 1D problem.

    The scan runs on ints; each point is tested with the float
    expressions ``ZSqrt2.__float__`` evaluates for it and its conjugate.
    """
    if x1 < x0 or y1 < y0:
        return []
    # Rebalance so the two interval lengths are comparable.
    len_i = max(x1 - x0, 1e-300)
    len_j = max(y1 - y0, 1e-300)
    m = int(round(math.log(math.sqrt(len_j / len_i)) / _LOG_LAMBDA))
    m = max(-200, min(200, m))
    lam_m = (1.0 + _SQRT2) ** m
    lam_conj_m = (1.0 - _SQRT2) ** m  # == (lambda^bullet)^m
    sx0, sx1 = x0 * lam_m, x1 * lam_m
    sy0, sy1 = y0 * lam_conj_m, y1 * lam_conj_m
    if sy1 < sy0:
        sy0, sy1 = sy1, sy0
    ua, ub = _unit(m)
    lo_x, hi_x, lo_y, hi_y = x0 - _TOL, x1 + _TOL, y0 - _TOL, y1 + _TOL
    out = []
    q_lo = math.ceil((sx0 - sy1) / (2 * _SQRT2) - _TOL)
    q_hi = math.floor((sx1 - sy0) / (2 * _SQRT2) + _TOL)
    for q in range(q_lo, q_hi + 1):
        p_lo = math.ceil(max(sx0 - q * _SQRT2, sy0 + q * _SQRT2) - _TOL)
        p_hi = math.floor(min(sx1 - q * _SQRT2, sy1 + q * _SQRT2) + _TOL)
        # (p + q sqrt2) * lambda^-m, stepped in p.
        a = p_lo * ua + 2 * q * ub
        b = p_lo * ub + q * ua
        for _ in range(p_lo, p_hi + 1):
            f = a + b * _SQRT2
            fc = a + (-b) * _SQRT2
            if lo_x <= f <= hi_x and lo_y <= fc <= hi_y:
                out.append((a, b, f, fc))
            a += ua
            b += ub
    return out


def solve_1d_grid(
    ix: tuple[float, float], jy: tuple[float, float]
) -> list[ZSqrt2]:
    """All x in Z[sqrt2] with x in ``ix`` and x.conj() in ``jy``.

    Output-sensitive: the interval pair is rebalanced with powers of the
    fundamental unit so the scan length is O(solutions + 1).
    """
    return [ZSqrt2(a, b) for a, b, _, _ in _scan_1d(*ix, *jy)]


def solve_1d_grid_offset(
    ix: tuple[float, float],
    jy: tuple[float, float],
    offset: float,
    offset_conj: float,
) -> list[tuple[int, int, float, float]]:
    """Grid solutions ``a + b sqrt2`` of the coset ``Z[sqrt2] + offset``.

    Returns ``(a, b, value, conj_value)`` where ``value = a + b sqrt2 +
    offset`` lies in ``ix`` and ``a - b sqrt2 + offset_conj`` lies in ``jy``.
    """
    base = _scan_1d(ix[0] - offset, ix[1] - offset,
                    jy[0] - offset_conj, jy[1] - offset_conj)
    return [(a, b, f + offset, fc + offset_conj) for a, b, f, fc in base]


@dataclass(frozen=True)
class Candidate:
    """A lattice point u = zu / sqrt(2)^k inside the epsilon region."""

    zu: ZOmega
    k: int
    quality: float  # Re(conj(z) u); higher is a closer approximation


def _halfplane_y_interval(
    x: float, cos_half: float, sin_half: float, bound: float
) -> tuple[float, float] | None:
    """Admissible Im(u) range for fixed Re(u) = x inside the slice."""
    disk = 1.0 - x * x
    if disk < 0.0:
        return None
    ylim = math.sqrt(disk)
    ylo, yhi = -ylim, ylim
    # Constraint: x cos - y sin >= bound.
    if abs(sin_half) < 1e-14:
        if x * cos_half < bound:
            return None
    elif sin_half > 0:
        yhi = min(yhi, (x * cos_half - bound) / sin_half)
    else:
        ylo = max(ylo, (x * cos_half - bound) / sin_half)
    if yhi < ylo:
        return None
    return ylo, yhi


def enumerate_candidates(theta: float, eps: float, k: int) -> Iterator[Candidate]:
    """Lattice points of denominator exponent ``k`` in the epsilon slice.

    Yields candidates in descending quality order.  Points divisible by
    sqrt(2) are skipped — they already appeared at level ``k - 1``.
    """
    cos_half = math.cos(theta / 2.0)
    sin_half = math.sin(theta / 2.0)
    bound = 1.0 - eps * eps / 2.0
    scale = _SQRT2**k

    # Bounding interval for x = Re(u): the slice lives inside the unit
    # disk and within distance eps of z = e^{-i theta/2}.
    x_center = cos_half
    x0 = max(-1.0, x_center - eps)
    x1 = min(1.0, x_center + eps)
    found: list[tuple[float, tuple[int, int, int, int]]] = []
    # Real part v = d + e / sqrt(2); parity of e selects the coset.
    for e_parity in (0, 1):
        off = 0.0 if e_parity == 0 else 1.0 / _SQRT2
        vs = solve_1d_grid_offset(
            (x0 * scale, x1 * scale), (-scale, scale), off, -off
        )
        for va, vb, v_val, v_conj in vs:
            x = v_val / scale
            ybounds = _halfplane_y_interval(x, cos_half, sin_half, bound)
            if ybounds is None:
                continue
            # Conjugate disk: w_conj^2 <= 2^k - v_conj^2.
            rem = scale * scale - v_conj * v_conj
            if rem < 0.0:
                continue
            wlim = math.sqrt(rem)
            ws = solve_1d_grid_offset(
                (ybounds[0] * scale, ybounds[1] * scale),
                (-wlim, wlim),
                off,
                -off,
            )
            # zu = a w^3 + b w^2 + c w + d from the real part d + e/sqrt2
            # and the imaginary part b + f/sqrt2: a = (f - e)/2, c = (f + e)/2.
            d = va
            e = 2 * vb + e_parity
            for wa, wb, w_val, _w_conj in ws:
                b = wa
                f = 2 * wb + e_parity
                a = (f - e) // 2
                c = (f + e) // 2
                if k > 0 and (a + c) % 2 == 0 and (b + d) % 2 == 0:
                    continue  # divisible by sqrt(2)
                y = w_val / scale
                quality = x * cos_half - y * sin_half
                if quality < bound - _TOL:
                    continue
                if x * x + y * y > 1.0 + _TOL:
                    continue
                found.append((quality, (a, b, c, d)))
    found.sort(key=lambda t: -t[0])
    for quality, zu in found:
        yield Candidate(zu=ZOmega(*zu), k=k, quality=quality)
