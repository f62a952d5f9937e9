"""gridsynth: optimal-ancilla-free Clifford+T approximation of Rz gates.

The Ross-Selinger pipeline, assembled from this package's parts:

1. For increasing denominator exponents ``k``, enumerate lattice
   candidates ``u`` in the epsilon slice around ``z = e^{-i theta/2}``
   (:mod:`grid_problem`), best approximation first.
2. For each candidate, try to complete it to a unitary by solving the
   norm equation ``t^dag t = 2^k - |zu|^2`` (:mod:`diophantine`).
3. Exactly synthesize the completed matrix into Clifford+T
   (:mod:`exact_synthesis`).

The first success at the smallest ``k`` gives a near-optimal T count of
about ``3 log2(1/eps)``, the scaling the paper's baselines exhibit.
Angles within ``eps`` of a multiple of pi/4 short-circuit to an exact
(at most one-T) sequence — the paper's "trivial rotations".
"""

from __future__ import annotations

import math

import numpy as np

from repro.gates.exact import ExactUnitary
from repro.linalg import check_unitary_2x2, trace_distance
from repro.linalg import rz as rz_matrix
from repro.rings.zsqrt2 import ZSqrt2
from repro.synthesis.gridsynth.diophantine import solve_norm_equation
from repro.synthesis.gridsynth.exact_synthesis import (
    exact_synthesize,
    t_power_tokens,
)
from repro.synthesis.gridsynth.grid_problem import enumerate_candidates
from repro.synthesis.sequences import GateSequence

_QUARTER = math.pi / 4.0


class GridsynthError(RuntimeError):
    """No decomposition found within the search limits."""


class GridsynthArgumentError(ValueError):
    """An argument of :func:`gridsynth_rz` or :func:`gridsynth_u3` is invalid.

    The message names the argument.
    """


def rz_distance(theta: float, phi: float) -> float:
    """Unitary distance between Rz(theta) and Rz(phi)."""
    return abs(math.sin((theta - phi) / 2.0))


def _check_count(name: str, value, least: int) -> None:
    if not (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and value >= least):
        raise GridsynthArgumentError(
            f"{name} must be an integer >= {least}, got {value!r}")


def gridsynth_rz(
    theta: float,
    eps: float,
    max_k: int | None = None,
    factor_steps: int = 50_000,
    candidate_limit: int = 64,
) -> GateSequence:
    """Approximate Rz(theta) to unitary distance <= eps in Clifford+T."""
    if not math.isfinite(theta):
        raise GridsynthArgumentError(f"theta must be finite, got {theta}")
    if not 0.0 < eps < 1.0:
        raise GridsynthArgumentError(f"eps must be in (0, 1), got {eps}")
    if max_k is not None:
        _check_count("max_k", max_k, 0)
    _check_count("factor_steps", factor_steps, 1)
    _check_count("candidate_limit", candidate_limit, 1)
    theta = math.remainder(theta, 4.0 * math.pi)
    # Trivial rotations: integer multiples of pi/4 synthesize exactly.
    j = round(theta / _QUARTER)
    snapped = rz_distance(theta, j * _QUARTER)
    if snapped <= eps:
        tokens = t_power_tokens(j)
        return GateSequence(gates=tuple(tokens), error=snapped)

    if max_k is None:
        max_k = 12 + int(3.5 * math.log2(1.0 / eps))
    target = rz_matrix(theta)
    for k in range(max_k + 1):
        tried = 0
        for cand in enumerate_candidates(theta, eps, k):
            if tried >= candidate_limit:
                break
            tried += 1
            two_k = ZSqrt2(2**k, 0)
            xi = two_k - cand.zu.norm_zs2()
            zt = solve_norm_equation(xi, factor_steps=factor_steps)
            if zt is None:
                continue
            u = ExactUnitary(cand.zu, -zt.conj(), zt, cand.zu.conj(), k)
            tokens = exact_synthesize(u)  # reduces u itself
            err = trace_distance(target, GateSequence(tuple(tokens), 0.0).matrix())
            if err <= eps + 1e-12:
                return GateSequence(gates=tuple(tokens), error=err)
    raise GridsynthError(
        f"no Clifford+T approximation of Rz({theta}) at eps={eps} "
        f"within k <= {max_k}"
    )


def gridsynth_u3(
    u3_target: np.ndarray,
    eps: float,
    **kwargs,
) -> GateSequence:
    """Synthesize an arbitrary 1q unitary with three Rz calls (paper Eq. 1).

    ``U = phase . Rz(phi + pi/2) H Rz(theta) H Rz(lam - pi/2)``; each Rz
    is synthesized at ``eps / 3`` so the combined error is below ``eps``
    (errors add at first order).  This is exactly the gridsynth-based
    workflow the paper compares against.
    """
    from repro.linalg import zyz_angles

    check_unitary_2x2(u3_target, "u3_target", GridsynthArgumentError)
    theta, phi, lam, _ = zyz_angles(u3_target)
    per_gate = eps / 3.0
    parts = [
        gridsynth_rz(phi + math.pi / 2.0, per_gate, **kwargs),
        gridsynth_rz(theta, per_gate, **kwargs),
        gridsynth_rz(lam - math.pi / 2.0, per_gate, **kwargs),
    ]
    tokens = (
        parts[0].gates + ("H",) + parts[1].gates + ("H",) + parts[2].gates
    )
    seq = GateSequence(gates=tokens, error=0.0)
    err = trace_distance(u3_target, seq.matrix())
    return GateSequence(gates=tokens, error=err)
