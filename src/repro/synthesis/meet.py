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
Euclidean k-d tree over ``{+q, -q}`` of every table candidate.
:func:`best_pair` solves a two-slot layout exactly this way, with a
canonical tie rule; :func:`refine_pairs` sweeps the same query over the
adjacent pairs of longer layouts.  Candidates are rescored exactly, and
the joint pair optimum is what lets the search reach the
information-theoretic error floor of its total T budget.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np
from scipy.spatial import cKDTree

# best_pair seeds its search radius from every _SEED_STRIDE-th query row.
_SEED_STRIDE = 64
# Partners fetched per query row by best_pair (more while a row's last
# one still ties the best pair).
_NEIGHBOURS = 4
# Pairs within this of the best |Tr| tie: exact ties, e.g. (A C, C^-1 B)
# for a Clifford C, differ only by float noise.
_TIE_TOL = 1e-12
# SU(2) matrices of the unit quaternions e_0..e_3 (see to_quaternions).
_QUAT_BASIS = np.array([[[1, 0], [0, 1]], [[1j, 0], [0, -1j]],
                        [[0, -1], [1, 0]], [[0, 1j], [1j, 0]]])


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
        self.quaternions = self._tree.data[: self._n]  # of ``mats``

    def nearest(
        self,
        targets: np.ndarray,
        k: int = 2,
        distance_upper_bound: float = np.inf,
    ) -> np.ndarray:
        """Candidate indices (M, k) maximizing |<q_target, q_candidate>|.

        ``targets`` are (M, 2, 2) matrices or their (M, 4) quaternions.
        Only candidates within ``distance_upper_bound`` (Euclidean, between
        unit quaternions) are returned, nearest first; a row with fewer
        such candidates is padded with ``-1``.
        """
        q = targets if targets.ndim == 2 else to_quaternions(targets)
        _, idx = self._tree.query(
            q, k=k, distance_upper_bound=distance_upper_bound
        )
        idx = idx.reshape(q.shape[0], k)  # cKDTree drops the axis for k=1
        return np.where(idx < 2 * self._n, idx % self._n, -1)


def best_pair(
    target: np.ndarray,
    mats: Sequence[np.ndarray],
    indexes: Sequence[QuaternionIndex],
    costs: Sequence[tuple[np.ndarray, np.ndarray]],
) -> tuple[int, int, complex]:
    """Canonical exact argmax of ``|Tr(U^dag A B)|`` over two slots.

    ``mats[i]`` are the rows of slot ``i``, ``indexes[i]`` their
    :class:`QuaternionIndex` and ``costs[i]`` their (T count, Clifford
    cost) arrays.  Every pair within 1e-12 of the best amplitude ties;
    among those the lowest T-count sum wins, then the lowest Clifford
    cost sum, then the lowest slot-0 row, then the lowest slot-1 row.
    The result depends on the target and the slots alone.

    The rows of the smaller slot query the other slot's index.  The
    best partners of every 64th query row seed the search radius; one
    radius-bounded query over all rows then finds every pair that can
    reach the best amplitude.  Returns the slot-0 row, the slot-1 row
    and the pair's amplitude ``Tr(U^dag A B)``.
    """
    udag = target.conj().T
    flip = len(mats[1]) < len(mats[0])
    own, other = (mats[1], mats[0]) if flip else (mats[0], mats[1])
    own_q, index = (
        (indexes[1].quaternions, indexes[0]) if flip
        else (indexes[0].quaternions, indexes[1])
    )
    # The ideal partner of a query row X is X^dag U (slot 0 queries) or
    # U X^dag (slot 1 queries) up to phase; its quaternion is real-linear
    # in X's, so one 4x4 map sends every row to its query point.
    us = target / np.sqrt(np.linalg.det(target))
    basis_dag = _QUAT_BASIS.conj().transpose(0, 2, 1)
    to_ideal = to_quaternions(us @ basis_dag if flip else basis_dag @ us)
    ideal = own_q @ to_ideal

    def scores(rows, cand):
        """Exact |Tr(U^dag A B)| of each row with its candidates."""
        left = own[rows] @ udag if flip else udag @ own[rows]
        s = np.abs(np.einsum("rab,rkba->rk", left, other[cand]))
        s[cand < 0] = -1.0
        return s

    rows = np.arange(0, len(own), _SEED_STRIDE)
    cand = index.nearest(ideal[rows], k=1)
    found = [(rows, cand, scores(rows, cand))]
    top = float(found[0][2].max())
    # Between unit quaternions dist^2 = 2 - |Tr(U^dag A B)|, so every pair
    # reaching the seed lies within this radius (the slack absorbs
    # rounding).  A row whose last partner still ties the best pair may
    # hide more ties, so it asks again for twice as many.
    radius = math.sqrt(max(2.0 - top + 1e-9, 0.0))
    rows, k = np.arange(len(own)), _NEIGHBOURS
    while rows.size:
        cand = index.nearest(ideal[rows], k=k, distance_upper_bound=radius)
        live = cand[:, 0] >= 0
        rows, cand = rows[live], cand[live]
        s = scores(rows, cand)
        found.append((rows, cand, s))
        top = max(top, float(s.max(initial=-1.0)))
        rows = rows[(cand[:, -1] >= 0) & (s[:, -1] >= top - _TIE_TOL)]
        k *= 2
    rows = np.concatenate([np.repeat(r, c.shape[1]) for r, c, _ in found])
    cand = np.concatenate([c.ravel() for _, c, _ in found])
    tie = np.concatenate([s.ravel() for _, _, s in found]) >= top - _TIE_TOL
    a, b = (cand[tie], rows[tie]) if flip else (rows[tie], cand[tie])
    (t0, c0), (t1, c1) = costs
    pick = np.lexsort((b, a, c0[a] + c1[b], t0[a] + t1[b]))[0]
    a, b = int(a[pick]), int(b[pick])
    return a, b, complex(np.trace(udag @ mats[0][a] @ mats[1][b]))


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
