"""Vectorized exact arithmetic on batches of Z[omega] 2x2 matrices.

A batch is an int64 array of shape (N, 2, 2, 4) holding the omega-basis
coefficients (a, b, c, d) of every matrix entry (value = a*w^3 + b*w^2 +
c*w + d), plus an (N,) array of denominator exponents ``k`` (matrix =
coeffs / sqrt(2)^k).  All operations are exact; no floats are involved
until :func:`batch_to_complex`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.gates.exact import ExactUnitary
from repro.rings.zomega import ZOmega

_OMEGA_POWERS = np.array(
    [np.exp(1j * math.pi / 4) ** p for p in (3, 2, 1, 0)], dtype=complex
)


def zmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Product of Z[omega] elements held in trailing-4 coefficient axes."""
    a, b, c, d = (x[..., i] for i in range(4))
    e, f, g, h = (y[..., i] for i in range(4))
    return np.stack(
        [
            a * h + b * g + c * f + d * e,
            b * h + c * g + d * f - a * e,
            c * h + d * g - a * f - b * e,
            d * h - a * g - b * f - c * e,
        ],
        axis=-1,
    )


# Row i is sqrt(2) times the i-th basis element (w^3, w^2, w, 1).
_SQRT2 = np.array([[0, 1, 0, -1], [1, 0, 1, 0], [0, 1, 0, 1], [-1, 0, 1, 0]])


def mul_sqrt2(x: np.ndarray) -> np.ndarray:
    """Multiply by sqrt(2) = w - w^3: (a,b,c,d) -> (b-d, a+c, b+d, c-a)."""
    return x @ _SQRT2


def div_sqrt2(x: np.ndarray) -> np.ndarray:
    """Exact division by sqrt(2); caller must ensure divisibility."""
    return mul_sqrt2(x) // 2


def divisible_by_sqrt2(x: np.ndarray) -> np.ndarray:
    """Elementwise divisibility test, reduced over matrix entries.

    Input (N, 2, 2, 4); output (N,) bool — True when *all four* entries
    of the matrix are divisible by sqrt(2), i.e. a + c and b + d even.
    """
    return ~((x[..., :2] + x[..., 2:]) & 1).any(axis=(1, 2, 3))


def exact_to_coeffs(u: ExactUnitary) -> tuple[np.ndarray, int]:
    """Convert an ExactUnitary to a (2, 2, 4) coefficient array and k."""
    m = np.empty((2, 2, 4), dtype=np.int64)
    for idx, e in zip(((0, 0), (0, 1), (1, 0), (1, 1)), u.entries()):
        m[idx] = (e.a, e.b, e.c, e.d)
    return m, u.k


def coeffs_to_exact(coeffs: np.ndarray, k: int) -> ExactUnitary:
    """Inverse of :func:`exact_to_coeffs`."""
    zs = [
        ZOmega(int(coeffs[i, j, 0]), int(coeffs[i, j, 1]),
               int(coeffs[i, j, 2]), int(coeffs[i, j, 3]))
        for i in (0, 1)
        for j in (0, 1)
    ]
    return ExactUnitary(zs[0], zs[1], zs[2], zs[3], int(k))


# _ZMUL[i, j] = zmul(e_i, e_j): the Z[omega] product as a bilinear map on
# coefficient vectors.  It maps each (i, j) to one signed l, so y's
# matrix of right multiplication is a signed gather of its coefficients.
_ZMUL = np.stack([zmul(e, np.eye(4, dtype=np.int64))
                  for e in np.eye(4, dtype=np.int64)])
_RIGHT_J = np.abs(_ZMUL).argmax(axis=1)
_RIGHT_SIGN = np.take_along_axis(_ZMUL, _RIGHT_J[:, None], axis=1)[:, 0]


def matmul(x: np.ndarray, kx, y: np.ndarray, ky) -> tuple[np.ndarray, np.ndarray]:
    """Exact matrix products ``X @ Y`` of (broadcastable) batches."""
    # One integer matmul: rows of X as (c, i) coefficient vectors times
    # Y's right multiplications as (c, i) x (b, l) matrices.
    right = np.swapaxes(y[..., _RIGHT_J] * _RIGHT_SIGN, -3, -2)
    out = x.reshape(*x.shape[:-3], 2, 8) @ right.reshape(*right.shape[:-4], 8, 8)
    return out.reshape(*out.shape[:-2], 2, 2, 4), np.asarray(kx + ky)


def reduce_batch(coeffs: np.ndarray, karr: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Divide out common sqrt(2) factors per matrix (lowest terms)."""
    coeffs = coeffs.copy()
    karr = karr.copy()
    while True:
        mask = (karr > 0) & divisible_by_sqrt2(coeffs)
        if not mask.any():
            return coeffs, karr
        coeffs[mask] = div_sqrt2(coeffs[mask])
        karr[mask] -= 1


# Phase rotation omega^j maps a coefficient tuple (a, b, c, d) to the
# window j..j+3 of the cycle (a, b, c, d, -a, -b, -c, -d).
_PHASE_WINDOWS = (np.arange(8)[:, None] + np.arange(4)) % 8


def canonical_keys(coeffs: np.ndarray, karr: np.ndarray) -> np.ndarray:
    """Per-matrix ``S65`` keys identifying matrices up to global phase omega^j.

    Matrices must already be in lowest terms.  A key is the ``k`` byte
    followed by the lexicographically smallest flattened coefficient
    tuple over the eight phase rotations, encoded order-preservingly, so
    keys of independent batches compare (and sort) consistently.
    """
    n = coeffs.shape[0]
    # Order-preserving encoding: shift to unsigned, big-endian.  The
    # bound is fixed so keys are comparable across independent batches.
    bound = 2**30
    if int(np.abs(coeffs).max(initial=0)) >= bound:
        raise OverflowError("coefficients exceed the encodable range")
    cycle = (np.concatenate([coeffs, -coeffs], axis=-1) + bound).astype(">u4")
    keys = np.full((n, 65), 255, dtype=np.uint8)  # every rotation is smaller
    keys[:, 0] = karr
    smallest = keys[:, 1:].view("S64")[:, 0]
    for window in _PHASE_WINDOWS:
        rotated = cycle[..., window].reshape(n, 16).view("S64")[:, 0]
        np.copyto(smallest, rotated, where=rotated < smallest)
    return keys.view("S65")[:, 0]


def batch_to_complex(coeffs: np.ndarray, karr: np.ndarray) -> np.ndarray:
    """Convert an exact batch to float matrices (N, 2, 2) complex."""
    vals = coeffs @ _OMEGA_POWERS
    scale = math.sqrt(2.0) ** (-karr.astype(float))
    return vals * scale[:, None, None]
