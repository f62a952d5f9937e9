"""Probabilistic unitary mixing on top of trasyn (paper §5 extension).

The paper's related-work section notes that "using trasyn as a blackbox
algorithm, mixing unitaries [Campbell 2017; Hastings 2016] can reduce
the error quadratically": a *random mixture* of Clifford+T
approximations turns coherent synthesis error into incoherent error.

For a candidate V = U exp(i delta . sigma), the first-order (coherent)
error is the rotation vector ``delta``; choosing mixture weights p_i on
the probability simplex that cancel ``sum_i p_i delta_i`` leaves only
second-order error, so the channel infidelity drops from O(eps^2) to
O(eps^4) — quadratic improvement in distance terms.  The weights are
found with nonnegative least squares on the stacked error vectors.
Candidates come from the slots and MPS tails trasyn memoizes per table
(:func:`repro.synthesis.trasyn.layout_slots`).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np
from scipy.optimize import nnls

from repro.enumeration import UnitaryTable, get_table
from repro.sim.fidelity import choi_of_sequence
from repro.synthesis.sequences import GateSequence
from repro.synthesis.trasyn import (_amp_to_error, budget_ranges,
                                    layout_mps, layout_slots)

#: Candidates whose error is within this factor of the best are mixed.
MIX_ERROR_WINDOW = 2.5

_PAULI = [
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]


def error_vector(target: np.ndarray, approx: np.ndarray) -> np.ndarray:
    """Rotation vector of the residual W = U^dag V (length = half-angle).

    The residual is phase-normalized into SU(2); the returned 3-vector
    is axis * sin(half-angle), the first-order coherent error.
    """
    w = target.conj().T @ approx
    det = w[0, 0] * w[1, 1] - w[0, 1] * w[1, 0]
    w = w / cmath.sqrt(det)
    if w[0, 0].real + w[1, 1].real < 0:
        w = -w
    return np.array(
        [
            0.5 * (w[0, 1] + w[1, 0]).imag,
            0.5 * (w[0, 1] - w[1, 0]).real,
            0.5 * (w[0, 0] - w[1, 1]).imag,
        ]
    )


def top_candidates(
    target: np.ndarray,
    t_budgets: list[int],
    n_candidates: int = 8,
    n_samples: int = 600,
    table: UnitaryTable | None = None,
    rng: np.random.Generator | None = None,
) -> list[GateSequence]:
    """Diverse low-error candidates from one error-aware sampling pass."""
    if rng is None:
        rng = np.random.default_rng()
    ranges = budget_ranges(t_budgets)
    if table is None:
        table = get_table(max(hi for _, hi in ranges))
    slots = layout_slots(table, ranges)
    seen: dict[tuple, complex] = {}
    if len(slots) == 1:
        amps = np.einsum("nij,ji->n", slots[0].mats, target.conj().T)
        order = np.argsort(-np.abs(amps))[: n_candidates * 4]
        for idx in order:
            seen[(int(slots[0].rows[idx]),)] = complex(amps[idx])
    else:
        choices, amps = layout_mps(table, ranges, target).sample(n_samples, rng)
        for c, a in zip(choices, amps):
            key = tuple(int(slot.rows[i]) for slot, i in zip(slots, c))
            seen.setdefault(key, complex(a))
    ranked = sorted(seen.items(), key=lambda kv: -abs(kv[1]))
    out = []
    for key, amp in ranked[:n_candidates]:
        gates: list[str] = []
        for idx in key:
            gates.extend(table.sequence(idx))
        out.append(GateSequence(gates=tuple(gates), error=_amp_to_error(amp)))
    return out


def mixing_weights(vectors: np.ndarray) -> np.ndarray:
    """Simplex weights minimizing |sum_i p_i v_i| (coherent cancellation)."""
    n = vectors.shape[0]
    if n == 1:
        return np.ones(1)
    # min ||A p|| with sum p = 1, p >= 0: augment with a heavily weighted
    # normalization row and solve NNLS.
    scale = max(np.abs(vectors).max(), 1e-12)
    kappa = 100.0 * scale
    a = np.vstack([vectors.T, kappa * np.ones((1, n))])
    b = np.concatenate([np.zeros(3), [kappa]])
    p, _ = nnls(a, b)
    total = p.sum()
    if total <= 0:
        return np.full(n, 1.0 / n)
    return p / total


def choi_trace_distance(choi: np.ndarray, target: np.ndarray) -> float:
    """Trace distance between Choi states (diamond-distance lower bound).

    For a *unitary* channel V this equals 2 sqrt(1 - |Tr(U^dag V)|^2/4)
    — twice the paper's unitary distance — so it is the right scale on
    which to see the quadratic gain of coherent-error cancellation.
    """
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1.0 / np.sqrt(2.0)
    phi_u = np.kron(target, np.eye(2)) @ phi
    target_choi = np.outer(phi_u, phi_u.conj())
    eigs = np.linalg.eigvalsh(choi - target_choi)
    return float(np.abs(eigs).sum())


@dataclass(frozen=True)
class MixedSynthesis:
    """A probabilistic mixture of Clifford+T approximations."""

    sequences: list[GateSequence]
    probabilities: np.ndarray
    coherent_distance: float  # best single candidate, Choi trace distance
    mixed_distance: float  # the mixture channel, Choi trace distance

    @property
    def improvement(self) -> float:
        if self.mixed_distance <= 0:
            return float("inf")
        return self.coherent_distance / self.mixed_distance

    @property
    def expected_t_count(self) -> float:
        return float(
            sum(p * s.t_count
                for p, s in zip(self.probabilities, self.sequences))
        )


def trasyn_mixed(
    target: np.ndarray,
    t_budgets: list[int],
    n_candidates: int = 8,
    n_samples: int = 600,
    table: UnitaryTable | None = None,
    rng: np.random.Generator | None = None,
) -> MixedSynthesis:
    """Synthesize a *channel* mixing trasyn candidates.

    Candidates within :data:`MIX_ERROR_WINDOW` times the best error are
    mixed with weights that cancel the summed coherent-error vector, turning
    coherent error into incoherent error: the worst-case (diamond-scale)
    distance drops quadratically while the expected T count stays at the
    single-candidate level.
    """
    candidates = top_candidates(
        target, t_budgets, n_candidates * 3, n_samples, table, rng
    )
    best_err = min(c.error for c in candidates)
    pool = [c for c in candidates if c.error <= MIX_ERROR_WINDOW * best_err]
    pool = pool[: max(n_candidates, 2)]
    vectors = np.stack([error_vector(target, c.matrix()) for c in pool])
    probs = mixing_weights(vectors)
    keep = probs > 1e-9
    pool = [c for c, k in zip(pool, keep) if k]
    probs = probs[keep]
    probs = probs / probs.sum()
    choi = sum(p * choi_of_sequence(c.gates) for p, c in zip(probs, pool))
    mixed_dist = choi_trace_distance(choi, target)
    best = min(pool, key=lambda c: c.error)
    best_dist = choi_trace_distance(
        choi_of_sequence(best.gates), target
    )
    return MixedSynthesis(
        sequences=pool,
        probabilities=probs,
        coherent_distance=best_dist,
        mixed_distance=mixed_dist,
    )
