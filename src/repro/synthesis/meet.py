"""Meet-in-the-middle pair refinement for trasyn.

For two adjacent tensor slots with environment ``E`` (a unitary), the
amplitude of choices (A, B) is ``Tr(E A B)``; maximizing it over both
slots jointly is a nearest-neighbour problem: ``A B`` should approximate
``E^dag`` up to phase, i.e. ``B ~ A^dag E^dag``.

The search uses the quaternion geometry of SU(2): after dividing out the
determinant phase, a 2x2 special unitary ``[[a, -conj(b)], [b, conj(a)]]``
maps to the unit 4-vector ``q = (Re a, Im a, Re b, Im b)``, and

    Tr(U^dag V) = 2 <q_U, q_V>

exactly.  Maximizing |Tr| is therefore a max-|dot| query, served by a
Euclidean k-d tree over ``{+q, -q}`` of every table candidate.  One pair
sweep finds the *jointly* optimal two-slot assignment (up to quaternion
sign degeneracies resolved by exact rescoring), which is what lets the
search reach the information-theoretic error floor of its total T budget.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree


def to_quaternions(mats: np.ndarray) -> np.ndarray:
    """Map a batch of U(2) matrices (N, 2, 2) to unit quaternions (N, 4).

    The result is defined up to sign; callers must treat ``q`` and ``-q``
    as the same rotation.
    """
    det = mats[:, 0, 0] * mats[:, 1, 1] - mats[:, 0, 1] * mats[:, 1, 0]
    phase = np.sqrt(det)
    su = mats / phase[:, None, None]
    q = np.stack(
        [su[:, 0, 0].real, su[:, 0, 0].imag, su[:, 1, 0].real, su[:, 1, 0].imag],
        axis=1,
    )
    return q


class QuaternionIndex:
    """k-d tree over the +-quaternions of a candidate matrix set."""

    def __init__(self, mats: np.ndarray):
        self.mats = mats
        q = to_quaternions(mats)
        self._tree = cKDTree(np.concatenate([q, -q], axis=0))
        self._n = mats.shape[0]

    def nearest(
        self,
        targets: np.ndarray,
        k: int = 2,
        distance_upper_bound: float = np.inf,
    ) -> np.ndarray:
        """Candidate indices (M, k) maximizing |<q_target, q_candidate>|.

        Only candidates within ``distance_upper_bound`` (Euclidean, between
        unit quaternions) are returned, nearest first; a row with fewer
        such candidates is padded with ``-1``.
        """
        q = to_quaternions(targets)
        _, idx = self._tree.query(
            q, k=k, distance_upper_bound=distance_upper_bound
        )
        return np.where(idx < 2 * self._n, idx % self._n, -1)


def refine_pairs(
    target: np.ndarray,
    mats: list[np.ndarray],
    choice: np.ndarray,
    indexes: list[QuaternionIndex],
    neighbours: int = 4,
    max_sweeps: int = 4,
) -> tuple[np.ndarray, complex]:
    """Sweep jointly-optimal updates over adjacent slot pairs.

    ``indexes[i]`` must be the :class:`QuaternionIndex` of ``mats[i]``.
    Returns the improved choice vector and its exact amplitude.
    """
    choice = np.array(choice, dtype=np.int64)
    n_slots = len(mats)
    udag = target.conj().T
    best_amp = _amplitude(udag, mats, choice)
    # A pair's query depends only on its environment: once queried, an
    # unchanged environment cannot yield an amplitude above best_amp.
    queried: dict[int, bytes] = {}
    for _ in range(max_sweeps):
        improved = False
        for i in range(n_slots - 1):
            left = np.eye(2, dtype=complex)
            for j in range(i):
                left = left @ mats[j][choice[j]]
            right = np.eye(2, dtype=complex)
            for j in range(i + 2, n_slots):
                right = right @ mats[j][choice[j]]
            env = right @ udag @ left  # amplitude = Tr(env A B)
            env_key = env.tobytes()
            if queried.get(i) == env_key:
                continue
            queried[i] = env_key
            env_dag = env.conj().T
            # For every A in slot i, the ideal B is A^dag env^dag.
            a_mats = mats[i]
            targets_b = np.einsum("sji,jk->sik", a_mats.conj(), env_dag)
            # Between unit quaternions dist^2 = 2 - |Tr(env A B)|, so every
            # B that could beat best_amp lies within this radius (the slack
            # absorbs rounding); rows without such a B are never rescored.
            radius = math.sqrt(max(2.0 - abs(best_amp) + 1e-9, 0.0))
            cand_b = indexes[i + 1].nearest(
                targets_b, k=neighbours, distance_upper_bound=radius
            )
            rows = np.nonzero(cand_b[:, 0] >= 0)[0]
            if rows.size == 0:
                continue
            cand_b = cand_b[rows]
            # Exact rescoring: Tr(env A B) for the nearest B per A.
            ea = np.einsum("ij,sjk->sik", env, a_mats[rows])  # (R, 2, 2)
            b_sel = mats[i + 1][cand_b]  # (R, k, 2, 2)
            scores = np.abs(np.einsum("sab,sjba->sj", ea, b_sel))
            scores[cand_b < 0] = -1.0
            flat = int(np.argmax(scores))
            r, s_b = np.unravel_index(flat, scores.shape)
            s_a = rows[r]
            amp = np.trace(env @ a_mats[s_a] @ mats[i + 1][cand_b[r, s_b]])
            if abs(amp) > abs(best_amp) + 1e-12:
                choice[i] = int(s_a)
                choice[i + 1] = int(cand_b[r, s_b])
                best_amp = complex(amp)
                improved = True
        if not improved:
            break
    return choice, best_amp


def _amplitude(udag: np.ndarray, mats: list[np.ndarray], choice) -> complex:
    prod = udag.copy()
    for j, m in enumerate(mats):
        prod = prod @ m[choice[j]]
    return complex(np.trace(prod))
