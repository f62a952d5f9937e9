"""trasyn: tensor-network-guided synthesis of arbitrary 1q unitaries.

The four steps of the paper's Section 3.3:

* **Step 0** (:mod:`repro.enumeration`): enumerate unique Clifford+T
  matrices per T count, with minimal sequences and a lookup table.
* **Step 1** (:class:`repro.tensornet.TraceMPS`): stack one table slice
  per tensor slot, attach the target, and canonicalize, so the MPS
  implicitly holds the trace value of every composite sequence.
* **Step 2**: perfect sampling from the squared trace values —
  error-aware sampling whose amplitudes come out for free.
* **Step 3** (:func:`simplify_sequence`): peephole-replace suboptimal
  subsequences using the exact lookup table.

A two-slot layout skips steps 1-2: :func:`repro.synthesis.meet.best_pair`
returns its canonical exact optimum directly; longer layouts polish
several starts by :func:`repro.synthesis.meet.refine_pairs` pair sweeps.

:func:`trasyn` is the paper's Algorithm 1: it wraps the single-shot
:func:`synthesize` in an outer loop over tensor counts and retry
attempts, optionally stopping at an error threshold (Equation (4)).
"""

from __future__ import annotations

import functools
import math
import threading
import weakref
from dataclasses import dataclass, field

import numpy as np

from repro.enumeration import UnitaryTable, get_table
from repro.enumeration import vectorized as vec
from repro.gates.exact import ExactUnitary
from repro.linalg import check_unitary_2x2
from repro.synthesis.meet import (PairSlot, QuaternionIndex, SlotCosets,
                                  amplitude, best_pair, product,
                                  refine_pairs, to_quaternions)
from repro.synthesis.sequences import GateSequence, t_count_of
from repro.tensornet import CanonicalTail, TraceMPS

DEFAULT_TENSOR_BUDGET = 6
# Distinct samples polished as starts by layouts of three or more slots.
_STARTS = 4
# _refine_sweeps stops after this many sweeps over the slots.
_SLOT_SWEEPS = 8


@dataclass(frozen=True)
class SlotLayout:
    """Target-independent data of one T-range layout on one table.

    ``indices[i]`` are the table indices of slot ``i`` and ``mats[i]``
    their matrices; :attr:`tail` is the layout's :class:`CanonicalTail`.
    All arrays are read-only and shared.
    """

    indices: tuple[np.ndarray, ...]
    mats: tuple[np.ndarray, ...]
    _tail: CanonicalTail | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def tail(self) -> CanonicalTail:
        """The :class:`CanonicalTail` of a multi-slot layout, built once.

        Built on first use: two-slot rungs never build a :class:`TraceMPS`
        (see :func:`synthesize`), so their layouts never hold one.
        """
        with _MEMO_LOCK:
            if self._tail is None:
                tail = CanonicalTail.build(list(self.mats))
                object.__setattr__(self, "_tail", tail)
            return self._tail

    def mps(self, target: np.ndarray) -> TraceMPS:
        return TraceMPS(target, list(self.mats), self.tail)


# A slot's table indices, matrices and (T count, Clifford cost) arrays.
_Slot = tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]


@dataclass
class _TableMemo:
    slots: dict[tuple[int, int], _Slot] = field(default_factory=dict)
    indexes: dict[tuple[int, int], QuaternionIndex] = field(default_factory=dict)
    cosets: dict[tuple[int, int], SlotCosets] = field(default_factory=dict)
    layouts: dict[tuple[tuple[int, int], ...], SlotLayout] = field(
        default_factory=dict
    )


# Slot matrices, QuaternionIndexes, coset maps and canonical MPS tails are
# deterministic per table; memoize them per live table.  Keying by the
# table object (weakly) rather than ``id(table)`` matters: id values are
# reused after garbage collection, so an id-keyed cache can silently
# serve stale data built from a different, freed table.  The
# WeakKeyDictionary drops a table's entries the moment the table itself
# is collected (memo values must never reference their table).
_TABLE_MEMO: "weakref.WeakKeyDictionary[UnitaryTable, _TableMemo]" = (
    weakref.WeakKeyDictionary()
)
# Concurrent compile_batch threads must not build the same entry twice.
_MEMO_LOCK = threading.RLock()


def _memo(table: UnitaryTable) -> _TableMemo:
    with _MEMO_LOCK:
        return _TABLE_MEMO.setdefault(table, _TableMemo())


def _slot(table: UnitaryTable, lo: int, hi: int) -> _Slot:
    slots = _memo(table).slots
    with _MEMO_LOCK:
        if (lo, hi) not in slots:
            idx = table.indices_for_t_range(lo, hi)
            mats = table.mats[idx]
            t, c = table.t_counts[idx], table.hs_costs[idx]
            for a in (idx, mats, t, c):
                a.setflags(write=False)
            slots[(lo, hi)] = (idx, mats, (t, c))
        return slots[(lo, hi)]


def _slot_index(table: UnitaryTable, lo: int, hi: int) -> QuaternionIndex:
    indexes = _memo(table).indexes
    with _MEMO_LOCK:
        if (lo, hi) not in indexes:
            indexes[(lo, hi)] = QuaternionIndex(_slot(table, lo, hi)[1])
        return indexes[(lo, hi)]


def _slot_cosets(table: UnitaryTable, lo: int, hi: int) -> SlotCosets:
    """The right-Clifford cosets of a T-range slot, in slot rows.

    A T range is closed under Clifford products on both sides, so it
    holds every coset of :attr:`UnitaryTable.right_cosets` whole or not
    at all.
    """
    cosets = _memo(table).cosets
    with _MEMO_LOCK:
        if (lo, hi) not in cosets:
            idx, mats, _ = _slot(table, lo, hi)
            images = table.right_cosets
            t = table.t_counts[images[:, 0]]
            images = np.searchsorted(idx, images[(t >= lo) & (t <= hi)])
            quaternions = to_quaternions(mats[images[:, 0]])
            images.setflags(write=False)
            quaternions.setflags(write=False)
            cosets[(lo, hi)] = SlotCosets(images, quaternions)
        return cosets[(lo, hi)]


def slot_layout(
    table: UnitaryTable, ranges: list[tuple[int, int]]
) -> SlotLayout:
    """Memoized :class:`SlotLayout` of T-count ``ranges`` on ``table``."""
    key = tuple((int(lo), int(hi)) for lo, hi in ranges)
    layouts = _memo(table).layouts
    with _MEMO_LOCK:
        if key not in layouts:
            slots = [_slot(table, lo, hi) for lo, hi in key]
            layouts[key] = SlotLayout(
                tuple(s[0] for s in slots), tuple(s[1] for s in slots)
            )
        return layouts[key]


def _amp_to_error(amplitude: complex) -> float:
    """Unitary distance from a trace value Tr(U^dag V) of a 2x2 product."""
    tv = min(abs(amplitude) / 2.0, 1.0)
    return math.sqrt(max(0.0, 1.0 - tv * tv))


@dataclass(frozen=True)
class TrasynResult:
    """Output of one synthesis call, with sampling diagnostics."""

    sequence: GateSequence
    n_tensors: int
    samples_drawn: int  # 0 for one slot and for sampling-free two slots
    raw_t_count: int  # before step-3 post-processing


class TrasynArgumentError(ValueError, RuntimeError):
    """An argument of :func:`trasyn` or :func:`synthesize` is invalid.

    A ``ValueError`` naming the argument; also a ``RuntimeError``, which
    an empty schedule has always raised.
    """


def synthesize(
    target: np.ndarray,
    t_budgets: list[int | tuple[int, int]],
    n_samples: int = 1000,
    rng: np.random.Generator | None = None,
    table: UnitaryTable | None = None,
    postprocess: bool = True,
    refine: bool = True,
) -> TrasynResult:
    """One pass of steps 1-3 for a fixed tensor layout (paper `Synthesize`).

    Parameters
    ----------
    target:
        2x2 unitary to approximate.
    t_budgets:
        One entry per tensor slot; an int ``m`` means T counts ``0..m``,
        a pair ``(lo, hi)`` selects that exact range.
    n_samples:
        Number of error-aware samples drawn from the MPS.  They are
        drawn only by a layout of three or more slots, or by a two-slot
        layout with ``refine`` off.  A two-slot layout with ``refine`` on
        builds no MPS: :func:`repro.synthesis.meet.best_pair` returns its
        canonical exact optimum, and the call still advances ``rng`` past
        the draws it skips (see :func:`_sampling_free`).  A single slot
        never draws.
    refine:
        Search by exact meet-in-the-middle pair steps.  Off, the best
        sample is polished by per-slot sweeps alone.  On, a layout of
        three or more slots polishes several starts (see
        :func:`_polish_starts`).
    """
    check_unitary_2x2(target, "target", TrasynArgumentError)
    if not t_budgets:
        raise TrasynArgumentError("t_budgets must name at least one tensor slot")
    if n_samples < 1:
        raise TrasynArgumentError(
            f"n_samples must be at least 1, got {n_samples}"
        )
    if rng is None:
        rng = np.random.default_rng()
    ranges = [(0, b) if isinstance(b, int) else (int(b[0]), int(b[1]))
              for b in t_budgets]
    max_hi = max(hi for _, hi in ranges)
    if table is None:
        table = get_table(max_hi)
    _check_table_budget(table, max_hi)
    layout = slot_layout(table, ranges)

    samples_drawn = 0
    if len(ranges) == 1:
        choice, best_amp = _exhaustive_best(target, table, layout)
    elif _sampling_free(len(ranges), refine):
        # The exact pair search needs no start: skip the MPS, keep the
        # generator stream.
        rng.random(_rung_draws(len(ranges), n_samples))
        a, b, best_amp = best_pair(target, _pair_data(table, ranges))
        choice = [a, b]
    else:
        choices, amps = layout.mps(target).sample(n_samples, rng)
        samples_drawn = n_samples
        if refine:
            choice, best_amp = _polish_starts(
                target, _pair_data(table, ranges), choices, amps
            )
        else:
            best = int(np.argmax(np.abs(amps)))
            choice, best_amp = _refine_sweeps(
                target, list(layout.mats), choices[best]
            )

    gates: list[str] = []
    for rows, row in zip(layout.indices, choice):
        gates.extend(table.sequence(int(rows[row])))
    raw_t = t_count_of(gates)
    if postprocess:
        gates = simplify_sequence(gates, table)
    error = _amp_to_error(best_amp)
    return TrasynResult(
        sequence=GateSequence(gates=tuple(gates), error=error),
        n_tensors=len(ranges),
        samples_drawn=samples_drawn,
        raw_t_count=raw_t,
    )


def _sampling_free(n_slots: int, refine: bool) -> bool:
    """Whether a :func:`synthesize` word is independent of the generator.

    A single slot is a table scan.  Two slots with the pair refinement
    on are solved by :func:`best_pair`: the argmax of ``|Tr(U^dag A B)|``
    over every pair (A, B), with exact ties broken by T count, Clifford
    cost and table index.  Its word depends on the target and the layout
    alone, so no sample or start is needed.
    """
    return n_slots == 1 or (n_slots == 2 and refine)


def _rung_draws(n_slots: int, n_samples: int) -> int:
    """Doubles one :func:`synthesize` call takes from its generator.

    ``TraceMPS.sample`` draws one per sample at every site:
    ``Generator.choice`` at site 0, one uniform per row after it.  A
    sampling-free two-slot call advances the generator by as many, so a
    later rung, or a caller sharing the generator, sees the same stream
    either way.
    """
    return 0 if n_slots == 1 else n_samples * n_slots


def _check_table_budget(table: UnitaryTable, budget: int) -> None:
    if table.budget < budget:
        raise TrasynArgumentError(
            f"table budget {table.budget} below requested T budget {budget}"
        )


def _pair_data(
    table: UnitaryTable, ranges: list[tuple[int, int]]
) -> list[PairSlot]:
    """The :class:`PairSlot` of every slot of a layout.

    Every slot but the last starts a pair, so it carries its cosets;
    every slot but the first is queried, so it carries its index.
    """
    last = len(ranges) - 1
    slots = []
    for i, (lo, hi) in enumerate(ranges):
        _, mats, costs = _slot(table, lo, hi)
        slots.append(PairSlot(
            mats, costs,
            cosets=_slot_cosets(table, lo, hi) if i < last else None,
            index=_slot_index(table, lo, hi) if i > 0 else None,
        ))
    return slots


def _polish_starts(
    target: np.ndarray,
    slots: list[PairSlot],
    choices: np.ndarray,
    amps: np.ndarray,
) -> tuple[np.ndarray, complex]:
    """Best polished start of a layout of three or more slots.

    Starts: the padded two-slot optimum (later slots at their row nearest
    the identity, :func:`best_pair` over slots 0-1), then the ``_STARTS``
    best distinct ``choices`` by ``|amps|``.  Each is polished by
    :func:`_refine_sweeps` and :func:`refine_pairs`; the largest
    ``|amplitude|`` wins, ties going to the earlier start.
    """
    mats = [slot.mats for slot in slots]
    pad = [int(np.argmax(np.abs(np.trace(m, axis1=1, axis2=2))))
           for m in mats[2:]]
    rest = product(mats[2:], pad)
    # Tr(U^dag A B rest) is best_pair's objective for target U rest^dag.
    a, b, _ = best_pair(target @ rest.conj().T, slots[:2])
    order = np.argsort(-np.abs(amps), kind="stable")
    _, first = np.unique(choices[order], axis=0, return_index=True)
    starts = [[a, b, *pad], *choices[order[np.sort(first)[:_STARTS]]]]
    polished = [
        refine_pairs(target, slots, _refine_sweeps(target, mats, start)[0])
        for start in starts
    ]
    return max(polished, key=lambda p: abs(p[1]))  # the first of equals


def _refine_sweeps(
    target: np.ndarray,
    mats: list[np.ndarray],
    choice: np.ndarray,
) -> tuple[np.ndarray, complex]:
    """Alternating per-slot exhaustive improvement of a sampled sequence.

    Holding all slots but one fixed, the best candidate for the free
    slot maximizes |Tr((R U^dag L) M_s)| — a single vectorized pass over
    that slot's table slice.  Sweeping until a fixed point polishes the
    sampled solution to a strong local optimum at negligible cost
    (the DMRG-flavoured counterpart of the paper's sampling step).
    """
    choice = np.array(choice, dtype=np.int64)
    udag = target.conj().T
    best_amp = amplitude(udag, mats, choice)
    for _ in range(_SLOT_SWEEPS):
        improved = False
        for i in range(len(mats)):
            # Tr(env @ M_s) is the amplitude
            env = product(mats[i + 1:], choice[i + 1:]) @ udag @ product(
                mats[:i], choice[:i]
            )
            scores = np.einsum("sij,ji->s", mats[i], env)
            s = int(np.argmax(np.abs(scores)))
            if abs(scores[s]) > abs(best_amp) + 1e-12:
                choice[i] = s
                best_amp = complex(scores[s])
                improved = True
        if not improved:
            break
    return choice, best_amp


def _exhaustive_best(
    target: np.ndarray, table: UnitaryTable, layout: SlotLayout
) -> tuple[list[int], complex]:
    """Single-slot synthesis: the MPS degenerates to a table scan.

    Returns the one-slot choice and its amplitude.  For T budgets within
    the precomputed table this is the provably optimal solution (paper
    RQ1 discussion).
    """
    amps = np.einsum("nij,ji->n", layout.mats[0], target.conj().T)
    best = np.lexsort((table.t_counts[layout.indices[0]], -np.abs(amps)))[0]
    return [int(best)], complex(amps[best])


# ---------------------------------------------------------------------------
# Step 3: exact peephole simplification
# ---------------------------------------------------------------------------

def simplify_sequence(
    gates, table: UnitaryTable, max_window_t: int | None = None
) -> list[str]:
    """Replace subsequences with cheaper table equivalents (paper step 3).

    Scans window starts left to right.  At the first start with an
    improving window, i.e. one whose stored minimal sequence is cheaper
    in (T count, Clifford count, length) lexicographically, the longest
    such window is substituted and the scan resumes from that start.
    Passes repeat until one makes no change.  Window products are exact,
    so the whole-sequence matrix is preserved up to global phase.
    """
    if max_window_t is None:
        max_window_t = table.budget
    gates = list(gates)
    changed = True
    while changed:
        changed = False
        start = 0
        while (hit := _first_rewrite(gates, start, table, max_window_t)):
            start, end, index = hit
            gates[start:end] = table.sequence(index)
            changed = True
    return [g for g in gates if g != "I"]


def _first_rewrite(
    gates: list[str], start: int, table: UnitaryTable, max_window_t: int
) -> tuple[int, int, int] | None:
    """First improving window at or after ``start``: (i, end, table index).

    Every window ``gates[i:j]`` with ``i >= start``, ``j - i >= 2`` and
    at most ``max_window_t`` T gates is multiplied out and looked up in
    one batch, one window length per step.
    """
    seq = gates[start:]
    n = len(seq)
    if n < 2:
        return None
    is_t = np.array([g in ("T", "Tdg") for g in seq], dtype=np.int64)
    is_c = np.array([g in ("H", "S", "Sdg") for g in seq], dtype=np.int64)
    t_pre = np.concatenate(([0], np.cumsum(is_t)))
    c_pre = np.concatenate(([0], np.cumsum(is_c)))
    # Longest window end per start: T count is monotone in the end.
    stop = np.searchsorted(t_pre, t_pre[:-1] + max_window_t, side="right") - 1
    gate_coeffs = np.stack([_gate_coeffs(g)[0] for g in seq])
    gate_k = np.array([_gate_coeffs(g)[1] for g in seq], dtype=np.int64)
    live = np.arange(n)
    prod, prod_k = gate_coeffs, gate_k
    found = []
    for length in range(2, n + 1):
        keep = stop[live] - live >= length
        if not keep.any():
            break
        live, prod, prod_k = live[keep], prod[keep], prod_k[keep]
        prod, prod_k = vec.matmul(
            prod, prod_k, gate_coeffs[live + length - 1],
            gate_k[live + length - 1],
        )
        prod, prod_k = vec.reduce_batch(prod, prod_k)
        found.append((live, live + length, prod, prod_k))
    if not found:
        return None
    lo = np.concatenate([f[0] for f in found])
    hi = np.concatenate([f[1] for f in found])
    index = table.lookup_batch(
        np.concatenate([f[2] for f in found]),
        np.concatenate([f[3] for f in found]),
    )
    hit = index >= 0
    new = (table.t_counts[index], table.hs_costs[index],
           table.sequence_lengths[index])
    old = (t_pre[hi] - t_pre[lo], c_pre[hi] - c_pre[lo], hi - lo)
    better = hit & (
        (new[0] < old[0])
        | ((new[0] == old[0])
           & ((new[1] < old[1]) | ((new[1] == old[1]) & (new[2] < old[2]))))
    )
    if not better.any():
        return None
    first = lo[better].min()
    pick = np.nonzero(better & (lo == first))[0]
    w = pick[np.argmax(hi[pick])]
    return start + int(first), start + int(hi[w]), int(index[w])


@functools.lru_cache(maxsize=None)
def _gate_coeffs(name: str) -> tuple[np.ndarray, int]:
    coeffs, k = vec.exact_to_coeffs(ExactUnitary.from_gate(name))
    coeffs.setflags(write=False)  # shared by every caller
    return coeffs, k


# ---------------------------------------------------------------------------
# Algorithm 1: the public entry point
# ---------------------------------------------------------------------------

# Escalating tensor layouts (CPU-scaled stand-in for the paper's A100
# configuration of three 10-T tensors with 40k samples).  Each entry is a
# budget list handed to :func:`synthesize`; later entries reach lower
# errors at higher cost.  Approximate per-layout error floors for Haar
# targets: 0.09, 7e-3, 2.5e-3, 1e-3, 7e-4.
DEFAULT_SCHEDULE: tuple[tuple[int, ...], ...] = (
    (8,),
    (10, 6),
    (10, 10),
    (12, 12),
    (12, 12, 8),
)


def schedule_for_threshold(error_threshold: float | None) -> list[list[int]]:
    """Budget-list ladder matched to a target synthesis error."""
    if error_threshold is None:
        return [list(b) for b in DEFAULT_SCHEDULE[:3]]
    # Conservative (90th-percentile) error floors per rung: the rung
    # listed is only trusted to *reliably* reach its floor, so a given
    # threshold pulls in one rung deeper than the mean floors suggest.
    floors = (0.12, 1.2e-2, 4e-3, 1.3e-3, 9e-4)
    ladder: list[list[int]] = []
    for budgets, floor in zip(DEFAULT_SCHEDULE, floors):
        # Skip rungs that essentially never meet the threshold.
        if floor > 40 * error_threshold:
            continue
        ladder.append(list(budgets))
        if floor <= error_threshold:
            break
    if not ladder:
        ladder.append(list(DEFAULT_SCHEDULE[-1]))
    return ladder


def trasyn(
    target: np.ndarray,
    t_budgets: list[int] | None = None,
    error_threshold: float | None = None,
    min_tensors: int = 1,
    attempts: int = 1,
    n_samples: int = 500,
    rng: np.random.Generator | None = None,
    table: UnitaryTable | None = None,
    schedule: list[list[int]] | None = None,
) -> GateSequence:
    """Synthesize ``target`` into Clifford+T (paper Algorithm 1).

    The search walks a ladder of tensor layouts from small T budgets
    upward, running ``attempts`` sampling rounds per layout.  A layout
    whose word does not depend on the generator runs once, and the
    generator is advanced past the draws of the skipped rounds.  With
    an ``error_threshold`` the walk stops as soon as the threshold is met
    (Equation (4) mode); otherwise every layout is explored and the best
    sequence wins (Equation (3) mode).

    ``t_budgets`` reproduces the paper interface exactly: the ladder is
    then ``t_budgets[:min_tensors], ..., t_budgets[:len(t_budgets)]``.
    """
    check_unitary_2x2(target, "target", TrasynArgumentError)
    if t_budgets is not None:
        if not t_budgets:
            raise TrasynArgumentError(
                "t_budgets must name at least one tensor slot"
            )
        if not 1 <= min_tensors <= len(t_budgets):
            raise TrasynArgumentError(
                f"min_tensors must be between 1 and len(t_budgets) = "
                f"{len(t_budgets)}, got {min_tensors}"
            )
        schedule = [
            list(t_budgets[:i]) for i in range(min_tensors, len(t_budgets) + 1)
        ]
    elif schedule is None:
        schedule = schedule_for_threshold(error_threshold)
    elif not schedule or not all(schedule):
        raise TrasynArgumentError(
            "schedule must be a non-empty list of non-empty budget lists"
        )
    if attempts < 1:
        raise TrasynArgumentError(f"attempts must be at least 1, got {attempts}")
    if n_samples < 1:
        raise TrasynArgumentError(
            f"n_samples must be at least 1, got {n_samples}"
        )
    if rng is None:
        rng = np.random.default_rng()
    max_budget = max(_hi(b) for budgets in schedule for b in budgets)
    if table is None:
        table = get_table(max_budget)
    _check_table_budget(table, max_budget)
    best: GateSequence | None = None
    for budgets in schedule:
        # Further attempts of a sampling-free rung would repeat its word.
        runs = 1 if _sampling_free(len(budgets), refine=True) else attempts
        for _ in range(runs):
            result = synthesize(
                target, budgets, n_samples=n_samples, rng=rng, table=table
            )
            cand = result.sequence
            if best is None or _quality(cand) < _quality(best):
                best = cand
            if error_threshold is not None and best.error < error_threshold:
                return best
        rng.random((attempts - runs) * _rung_draws(len(budgets), n_samples))
    return best


def _hi(budget) -> int:
    return budget if isinstance(budget, int) else int(budget[1])


def _quality(seq: GateSequence) -> tuple[float, int, int]:
    return (seq.error, seq.t_count, seq.clifford_count)
