"""Meet-in-the-middle pair search for trasyn.

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
:func:`best_pair` is the one pair search: it solves a two-slot layout
exactly, with a canonical tie rule.  :func:`refine_pairs` sweeps it over
the adjacent pairs of longer layouts (target ``E^dag``), and the joint
pair optimum is what lets the search reach the information-theoretic
error floor of its total T budget.

The amplitude is invariant under ``(A, B) -> (A C, C^-1 B)`` for the 24
Cliffords ``C``, and a T-count slot is closed under Clifford products.
So only one row per right-Clifford coset of the first slot queries the
second slot's index, and only the pairs tying the best are expanded into
their 24 images for the tie rule.

A :class:`Slot` is what the search reads of one T-count range of a
table: its rows, matrices, costs and coset map, plus the k-d index and
transversal quaternions, each built the first time a pair needs it.
"""

from __future__ import annotations

import functools
import math
import threading
from collections.abc import Sequence

import numpy as np
from scipy.spatial import cKDTree

from repro.enumeration import UnitaryTable
from repro.gates.cliffords import clifford_matrices

# best_pair seeds its search radius from every _SEED_STRIDE-th query row.
_SEED_STRIDE = 64
# Partners fetched per query row by best_pair (more while a row's last
# one still ties the best pair).
_NEIGHBOURS = 4
# Pairs within this of the best |Tr| tie: exact ties, e.g. (A C, C^-1 B)
# for a Clifford C, differ only by float noise.
_TIE_TOL = 1e-12
# |Tr(X^dag Y)| of a Clifford image Y and the slot row X found for it
# is 2 up to rounding; distinct table rows are far further apart.
_MEMBER_TOL = 1e-9
# refine_pairs stops after this many sweeps over the adjacent pairs.
_PAIR_SWEEPS = 4
# SU(2) matrices of the unit quaternions e_0..e_3 (see to_quaternions).
_QUAT_BASIS = np.array([[[1, 0], [0, 1]], [[1j, 0], [0, -1j]],
                        [[0, -1], [1, 0]], [[0, 1j], [1j, 0]]])
# Concurrent compile_batch threads must not build a slot's index twice.
_BUILD_LOCK = threading.Lock()


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


class Slot:
    """One tensor slot: the rows of one T-count range of a Clifford+T table.

    ``rows`` are the table indices, ``mats`` their matrices and ``costs``
    their (T count, Clifford cost) arrays.  ``cosets[r, c]`` is the slot
    row of right coset ``r``'s identity-rooted member times
    ``cliffords()[c]``, so column 0 is the transversal; see
    :attr:`repro.enumeration.UnitaryTable.right_cosets`.  All arrays are
    read-only.  A pair's first slot reads :attr:`quaternions`, its second
    :attr:`index`; each is built on first use, once.
    """

    def __init__(self, rows: np.ndarray, mats: np.ndarray,
                 costs: tuple[np.ndarray, np.ndarray], cosets: np.ndarray):
        self.rows, self.mats, self.costs, self.cosets = rows, mats, costs, cosets
        self._index: QuaternionIndex | None = None
        self._quaternions: np.ndarray | None = None

    @classmethod
    def from_table(cls, table: UnitaryTable, lo: int, hi: int) -> Slot:
        """The slot of T counts ``lo..hi`` of ``table``.

        A T range is closed under Clifford products on both sides, so it
        holds every right coset of the table whole or not at all.
        """
        rows = table.indices_for_t_range(lo, hi)
        mats = table.mats[rows]
        costs = (table.t_counts[rows], table.hs_costs[rows])
        cosets = table.right_cosets
        t = table.t_counts[cosets[:, 0]]
        cosets = np.searchsorted(rows, cosets[(t >= lo) & (t <= hi)])
        for a in (rows, mats, *costs, cosets):
            a.setflags(write=False)
        return cls(rows, mats, costs, cosets)

    @property
    def index(self) -> QuaternionIndex:
        """The :class:`QuaternionIndex` over :attr:`mats`."""
        with _BUILD_LOCK:
            if self._index is None:
                self._index = QuaternionIndex(self.mats)
            return self._index

    @property
    def quaternions(self) -> np.ndarray:
        """The transversal rows' quaternions (see :func:`to_quaternions`)."""
        with _BUILD_LOCK:
            if self._quaternions is None:
                q = to_quaternions(self.mats[self.cosets[:, 0]])
                q.setflags(write=False)
                self._quaternions = q
            return self._quaternions


def best_pair(
    target: np.ndarray, slots: Sequence[Slot]
) -> tuple[int, int, complex]:
    """Canonical exact argmax of ``|Tr(U^dag A B)|`` over two slots.

    Every pair within 1e-12 of the best amplitude ties; among those the
    lowest T-count sum wins, then the lowest Clifford cost sum, then the
    lowest slot-0 row, then the lowest slot-1 row.  The result depends
    on the target and the slots alone.

    The amplitude is unchanged by ``(A, B) -> (A C, C^-1 B)`` for each
    Clifford ``C``, and both slots are closed under Clifford products,
    so one transversal row per right coset of slot 0 queries slot 1's
    index.  The best partners of every 64th such row seed the search
    radius; one radius-bounded query over all of them then finds every
    transversal pair that can reach the best amplitude.  The tied ones
    are expanded into their 24 images, which are rescored and ranked by
    the tie rule.  A ``RuntimeError`` is raised when an image is not a
    slot-1 row.  Returns the slot-0 row, the slot-1 row and the pair's
    amplitude ``Tr(U^dag A B)``.
    """
    first, second = slots
    udag = target.conj().T
    transversal = first.cosets[:, 0]
    index = second.index
    ideal = _ideal_partners(target, first)

    def scores(rows, cand):
        """Exact |Tr(U^dag A B)| of each transversal row with its partners."""
        left = udag @ first.mats[transversal[rows]]
        s = np.abs(np.einsum("rab,rkba->rk", left, second.mats[cand]))
        s[cand < 0] = -1.0
        return s

    rows = np.arange(0, len(transversal), _SEED_STRIDE)
    cand = index.nearest(ideal[rows], k=1)
    found = [(rows, cand, scores(rows, cand))]
    top = float(found[0][2].max())
    # Between unit quaternions dist^2 = 2 - |Tr(U^dag A B)|, so every pair
    # reaching the seed lies within this radius (the slack absorbs
    # rounding).  A row whose last partner still ties the best pair may
    # hide more ties, so it asks again for twice as many.
    radius = math.sqrt(max(2.0 - top + 1e-9, 0.0))
    rows, k = np.arange(len(transversal)), _NEIGHBOURS
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
    near = np.concatenate([s.ravel() for _, _, s in found])
    near = near >= top - 2 * _TIE_TOL
    a, b = _coset_images(first, second, rows[near], cand[near])
    s = np.abs(np.einsum("nab,nba->n", udag @ first.mats[a], second.mats[b]))
    tie = s >= s.max() - _TIE_TOL
    a, b = a[tie], b[tie]
    (t0, c0), (t1, c1) = first.costs, second.costs
    pick = np.lexsort((b, a, c0[a] + c1[b], t0[a] + t1[b]))[0]
    a, b = int(a[pick]), int(b[pick])
    return a, b, complex(np.trace(udag @ first.mats[a] @ second.mats[b]))


def pair_reaches(
    target: np.ndarray, slots: Sequence[Slot], floor: float,
    reverse: bool = False,
) -> bool:
    """Whether some pair of two slots has ``|Tr(U^dag A B)| >= floor``.

    Between unit quaternions ``dist^2 = 2 - |Tr|``: one query per coset
    within ``sqrt(2 - floor)``.  Slot 0's transversal queries slot 1's
    index as in :func:`best_pair`; or, ``reverse``, slot 1's transversal
    rows X query slot 0's index at ``U X``, since every slot-1 row is
    ``C X^dag`` and ``(A, C X^dag)`` scores as ``(A C, X^dag)``.
    """
    first, second = slots
    if reverse:
        rows = second.mats[second.cosets[:, 0]]
        query, index = to_quaternions(target @ rows), first.index
    else:
        query, index = _ideal_partners(target, first), second.index
    radius = math.sqrt(max(2.0 - floor, 0.0))
    return bool((index.nearest(query, k=1, distance_upper_bound=radius) >= 0).any())


def _ideal_partners(target: np.ndarray, first: Slot) -> np.ndarray:
    """Quaternions of ``X^dag U``, the ideal partner of each transversal row.

    They are real-linear in X's quaternion: one 4x4 map sends every row.
    """
    us = target / np.sqrt(np.linalg.det(target))
    return first.quaternions @ to_quaternions(
        _QUAT_BASIS.conj().transpose(0, 2, 1) @ us)


def _coset_images(
    first: Slot, second: Slot, rows: np.ndarray, cand: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Slot rows of ``(X C, C^-1 B)`` for transversal pairs (X, B), all C.

    ``rows`` index the transversal of ``first``, ``cand`` are the
    partners' rows of ``second``; returns flat (slot-0, slot-1) rows.
    """
    a = first.cosets[rows].ravel()
    # C^-1 B up to phase; its slot-1 row is the nearest one.
    inverse = _clifford_matrices().conj().transpose(0, 2, 1)
    want = (inverse[None] @ second.mats[cand][:, None]).reshape(-1, 2, 2)
    b = second.index.nearest(want, k=1)[:, 0]
    overlap = np.abs(np.einsum("nab,nab->n", second.mats[b].conj(), want))
    if (overlap < 2.0 - _MEMBER_TOL).any():
        raise RuntimeError(
            "slot 1 is not closed under left Clifford multiplication"
        )
    return a, b


@functools.cache
def _clifford_matrices() -> np.ndarray:
    """The 24 Cliffords (24, 2, 2), in ``cliffords()`` order, read-only."""
    mats = clifford_matrices()
    mats.setflags(write=False)
    return mats


def refine_pairs(
    target: np.ndarray,
    slots: Sequence[Slot],
    choice: np.ndarray,
) -> tuple[np.ndarray, complex]:
    """Sweep :func:`best_pair` over adjacent slot pairs (coordinate ascent).

    With the other slots fixed, the amplitude of slots ``i, i+1`` is
    ``Tr(env A B)``: :func:`best_pair`'s objective for target ``env^dag``.
    A step takes that argmax when it beats the current amplitude by more
    than 1e-12.  Returns the improved choice vector and its amplitude.
    """
    choice = np.array(choice, dtype=np.int64)
    mats = [slot.mats for slot in slots]
    udag = target.conj().T
    best_amp = amplitude(udag, mats, choice)
    # An unchanged environment has the same argmax, which cannot beat
    # best_amp again: such a pair is not searched twice.
    queried: dict[int, bytes] = {}
    for _ in range(_PAIR_SWEEPS):
        improved = False
        for i in range(len(mats) - 1):
            env = product(mats[i + 2:], choice[i + 2:]) @ udag @ product(
                mats[:i], choice[:i]
            )
            if queried.get(i) == env.tobytes():
                continue
            queried[i] = env.tobytes()
            pair = slice(i, i + 2)
            a, b, amp = best_pair(env.conj().T, slots[pair])
            if abs(amp) > abs(best_amp) + _TIE_TOL:
                choice[pair] = a, b
                best_amp = amp
                improved = True
        if not improved:
            break
    return choice, best_amp


def amplitude(
    udag: np.ndarray, mats: Sequence[np.ndarray], choice: np.ndarray
) -> complex:
    """``Tr(U^dag M_0[c_0] M_1[c_1] ...)`` of a choice vector."""
    prod = udag.copy()
    for j, m in enumerate(mats):
        prod = prod @ m[choice[j]]
    return complex(np.trace(prod))


def product(mats: Sequence[np.ndarray], choice: np.ndarray) -> np.ndarray:
    """``M_0[c_0] M_1[c_1] ...``, left to right; the identity for no slots."""
    prod = np.eye(2, dtype=complex)
    for m, c in zip(mats, choice):
        prod = prod @ m[c]
    return prod
