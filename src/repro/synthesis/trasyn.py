"""trasyn: tensor-network-guided synthesis of arbitrary 1q unitaries.

The four steps of the paper's Section 3.3:

* **Step 0** (:mod:`repro.enumeration`): enumerate unique Clifford+T
  matrices per T count, with minimal sequences and a lookup table.
* **Step 1** (:class:`repro.tensornet.TraceMPS`): stack one table slice
  per tensor slot, attach the target, and canonicalize, so the MPS
  implicitly holds the trace value of every composite sequence.  A slot
  is one T-count range of the table, a :class:`repro.synthesis.meet.Slot`;
  :func:`layout_slots` memoizes them per table and :func:`layout_mps`
  the target-independent :class:`repro.tensornet.CanonicalTail` of a
  layout.
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

import math
import threading
import weakref
from dataclasses import dataclass

import numpy as np

from repro.enumeration import UnitaryTable, get_table
from repro.enumeration import vectorized as vec
from repro.gates.exact import EXACT_GATES
from repro.linalg import check_unitary_2x2
from repro.synthesis.meet import (Slot, amplitude, best_pair, pair_reaches,
                                  product, refine_pairs)
from repro.synthesis.sequences import GateSequence, t_count_of
from repro.tensornet import CanonicalTail, TraceMPS

# Distinct samples polished as starts by layouts of three or more slots.
_STARTS = 4
# _refine_sweeps stops after this many sweeps over the slots.
_SLOT_SWEEPS = 8


# Per live table, a T range ``(lo, hi)`` maps to its Slot and a layout's
# tuple of ranges to its CanonicalTail.  The memo is keyed by the table
# object, weakly: id values are reused after garbage collection, so an
# id-keyed memo could serve data of a freed table.  A table's entries go
# with it (memo values must never reference their table).
_TABLE_MEMO: "weakref.WeakKeyDictionary[UnitaryTable, dict]" = (
    weakref.WeakKeyDictionary()
)
# Concurrent compile_batch threads must not build the same entry twice.
_MEMO_LOCK = threading.Lock()


def layout_slots(
    table: UnitaryTable, ranges: list[tuple[int, int]]
) -> list[Slot]:
    """The memoized :class:`Slot` of every T-count range on ``table``."""
    with _MEMO_LOCK:
        memo = _TABLE_MEMO.setdefault(table, {})
        for lo, hi in ranges:
            if (lo, hi) not in memo:
                memo[(lo, hi)] = Slot.from_table(table, lo, hi)
        return [memo[(lo, hi)] for lo, hi in ranges]


def layout_mps(
    table: UnitaryTable, ranges: list[tuple[int, int]], target: np.ndarray
) -> TraceMPS:
    """The :class:`TraceMPS` of a multi-slot layout for ``target``.

    Its :class:`CanonicalTail` is memoized per layout and built on first
    use, so a layout that never samples (a two-slot rung, see
    :func:`synthesize`) never holds one.
    """
    mats = [slot.mats for slot in layout_slots(table, ranges)]
    key = tuple(ranges)
    with _MEMO_LOCK:
        memo = _TABLE_MEMO[table]
        if key not in memo:
            memo[key] = CanonicalTail.build(mats)
        tail = memo[key]
    return TraceMPS(target, mats, tail)


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
    ranges = budget_ranges(t_budgets)
    if n_samples < 1:
        raise TrasynArgumentError(
            f"n_samples must be at least 1, got {n_samples}"
        )
    if rng is None:
        rng = np.random.default_rng()
    max_hi = max(hi for _, hi in ranges)
    if table is None:
        table = get_table(max_hi)
    _check_table_budget(table, max_hi)
    slots = layout_slots(table, ranges)

    samples_drawn = 0
    if len(slots) == 1:
        choice, best_amp = _exhaustive_best(target, slots[0])
    elif _sampling_free(len(slots), refine):
        # The exact pair search needs no start: skip the MPS, keep the
        # generator stream.
        rng.random(_rung_draws(len(slots), n_samples))
        a, b, best_amp = best_pair(target, slots)
        choice = [a, b]
    else:
        choices, amps = layout_mps(table, ranges, target).sample(n_samples, rng)
        samples_drawn = n_samples
        if refine:
            choice, best_amp = _polish_starts(target, slots, choices, amps)
        else:
            best = int(np.argmax(np.abs(amps)))
            mats = [slot.mats for slot in slots]
            choice, best_amp = _refine_sweeps(target, mats, choices[best])

    words = [table.sequence(int(slot.rows[row]))
             for slot, row in zip(slots, choice)]
    gates = [g for word in words for g in word]
    raw_t = t_count_of(gates)
    if postprocess:
        gates = simplify_sequence(gates, table, seams=np.cumsum([len(w) for w in words[:-1]]))
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


def budget_ranges(t_budgets) -> list[tuple[int, int]]:
    """The T-count range ``(lo, hi)`` of every slot of a budget list.

    An entry is an integer ``m >= 0``, meaning T counts ``0..m``, or a
    pair ``(lo, hi)`` with ``0 <= lo <= hi``; Python and NumPy integers
    both count.  Anything else raises :class:`TrasynArgumentError`.
    """
    if not isinstance(t_budgets, (tuple, list, np.ndarray)) or not len(t_budgets):
        raise TrasynArgumentError(
            f"t_budgets must name at least one tensor slot, got {t_budgets!r}"
        )
    return [_budget_range(entry) for entry in t_budgets]


def _budget_range(entry) -> tuple[int, int]:
    pair = (0, entry) if _is_count(entry) else entry
    if ((isinstance(pair, (tuple, list)) and len(pair) == 2
         or isinstance(pair, np.ndarray) and pair.shape == (2,))
            and all(map(_is_count, pair)) and 0 <= pair[0] <= pair[1]):
        return int(pair[0]), int(pair[1])
    raise TrasynArgumentError("t_budgets entries must be integers m >= 0 or "
                              f"pairs 0 <= lo <= hi, got {entry!r}")


def _is_count(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _polish_starts(
    target: np.ndarray,
    slots: list[Slot],
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
    target: np.ndarray, slot: Slot
) -> tuple[list[int], complex]:
    """Single-slot synthesis: the MPS degenerates to a table scan.

    Returns the one-slot choice and its amplitude.  For T budgets within
    the precomputed table this is the provably optimal solution (paper
    RQ1 discussion).
    """
    amps = np.einsum("nij,ji->n", slot.mats, target.conj().T)
    best = np.lexsort((slot.costs[0], -np.abs(amps)))[0]
    return [int(best)], complex(amps[best])


def _can_reach(
    target: np.ndarray, table: UnitaryTable, budgets, error: float,
    indexed: set[tuple[int, int]],
) -> bool:
    """Whether a sampling-free layout may synthesize below ``error``.

    That needs ``|Tr(U^dag V)| > 2 sqrt(1 - error^2)``; the floor is
    lowered by 1e-9, so rounding can only run a rung in vain.  Two slots
    query from the one with fewer cosets if the other's range is in
    ``indexed``, the ranges whose index the ladder builds anyway.
    False proves the layout's error is at least ``error``.
    """
    ranges = budget_ranges(budgets)
    slots = layout_slots(table, ranges)
    floor = 2.0 * math.sqrt(max(0.0, 1.0 - error * error)) - 1e-9
    if len(slots) == 1:
        amps = np.einsum("nij,ji->n", slots[0].mats, target.conj().T)
        return bool(np.abs(amps).max() >= floor)
    reverse = (len(slots[1].cosets) < len(slots[0].cosets)
               and ranges[0] in indexed)
    return pair_reaches(target, slots, floor, reverse)


# ---------------------------------------------------------------------------
# Step 3: exact peephole simplification
# ---------------------------------------------------------------------------

def simplify_sequence(
    gates, table: UnitaryTable, max_window_t: int | None = None, *,
    seams=None,
) -> list[str]:
    """Replace subsequences with cheaper table equivalents (paper step 3).

    Scans window starts left to right.  At the first start with an
    improving window, i.e. one whose stored minimal sequence is cheaper
    in (T count, Clifford count, length) lexicographically, the longest
    such window is substituted and the scan resumes from that start.
    Passes repeat until one makes no change.  Window products are exact,
    so the whole-sequence matrix is preserved up to global phase.

    Only windows crossing a seam are looked up: ``seams`` are sorted
    offsets splitting ``gates`` into words stored in ``table`` (None:
    every gate boundary), and no window inside a stored word improves
    (checked on every row up to budget 12).  A rewritten segment's
    edges become seams.
    """
    if max_window_t is None:
        max_window_t = table.budget
    gates = list(gates)
    n = len(gates)
    seams = list(range(1, n)) if seams is None else list(seams)
    if not (all(map(_is_count, seams))
            and all(0 <= a <= b <= n for a, b in zip([0, *seams], [*seams, n]))):
        raise TrasynArgumentError(f"seams must be sorted offsets in 0..{n}, got {seams!r}")
    changed, limit = True, n
    while changed:
        changed = False
        start = 0
        while (hit := _first_rewrite(gates, seams, start, limit, table, max_window_t)):
            start, end, index = hit
            gates[start:end] = new = table.sequence(index)
            seams = [s for s in seams if s < start] + [start, start + len(new)] + [
                s + start + len(new) - end for s in seams if s > end]
            changed, limit = True, len(gates)
        limit = start  # windows from the last rewrite on were scanned since
    return [g for g in gates if g != "I"]


def _first_rewrite(
    gates: list[str], seams: list[int], start: int, limit: int,
    table: UnitaryTable, max_window_t: int,
) -> tuple[int, int, int] | None:
    """First improving window starting in [start, limit): (i, end, index).

    Every window ``gates[i:end]`` with ``start <= i < limit``, at most
    ``max_window_t`` T gates and a seam ``s`` with ``i < s < end`` is
    looked up in one batch.  With ``s`` the first seam after ``i``, it
    is ``gates[i:s]`` times ``gates[s:end]``, both from one log-depth
    product scan outward from every seam.
    """
    cut = [s for s in seams if start < s < len(gates)]
    if not cut:
        return None
    codes = np.array([_GATE_CODE[g] for g in gates], dtype=np.int64)
    t_pre = np.concatenate(([0], np.cumsum(_GATE_T[codes])))
    c_pre = np.concatenate(([0], np.cumsum(_GATE_C[codes])))
    # Longest window end per start: T count is monotone in the end.
    stop = np.searchsorted(t_pre, t_pre[:-1] + max_window_t, side="right") - 1
    lo = np.arange(start, min(cut[-1], limit))
    seam = np.asarray(cut)[np.searchsorted(cut, lo, side="right")]
    lo, seam = lo[stop[lo] > seam], seam[stop[lo] > seam]
    if not len(lo):
        return None
    # Two chains per seam, read outward: the gates before it, right to
    # left and transposed, and the gates after it up to the longest end.
    used, first_lo = np.unique(seam, return_index=True)
    runs = np.stack((used - lo[first_lo], stop[used - 1] - used), axis=1)
    chain, off = _runs(runs.ravel())
    right = chain % 2 == 1
    gate = codes[np.where(right, used[chain // 2] + off, used[chain // 2] - 1 - off)]
    coeffs, karr = _GATE_COEFFS[gate], _GATE_K[gate]
    coeffs[~right] = coeffs[~right].swapaxes(1, 2)
    for d in 1 << np.arange(int(off.max()).bit_length()):  # Hillis-Steele
        live = np.nonzero(off >= d)[0]
        coeffs[live], karr[live] = vec.reduce_batch(*vec.matmul(
            coeffs[live - d], karr[live - d], coeffs[live], karr[live]
        ))
        if np.abs(coeffs[live]).max() >= 2**30:  # keeps the int64 products exact
            raise OverflowError("window coefficients exceed the exact range")
    # Pair every start with each end in (seam, stop[lo]].
    head = (np.cumsum(runs) - runs.ravel()).reshape(-1, 2)[np.searchsorted(used, seam)]
    pair, j = _runs(stop[lo] - seam)
    a, b = (head[:, 0] + seam - 1 - lo)[pair], head[pair, 1] + j
    lo, hi = lo[pair], seam[pair] + 1 + j
    index = table.lookup_batch(*vec.matmul(
        coeffs[a].swapaxes(1, 2), karr[a], coeffs[b], karr[b]
    ))
    # (T count, Clifford count, length), compared lexicographically.
    new = (table.t_counts[index] << 40) + (table.hs_costs[index] << 20) + (
        table.sequence_lengths[index])
    old = ((t_pre[hi] - t_pre[lo]) << 40) + ((c_pre[hi] - c_pre[lo]) << 20) + (
        hi - lo)
    better = (index >= 0) & (new < old)
    if not better.any():
        return None
    w = np.flatnonzero(better)[np.lexsort((-hi[better], lo[better]))[0]]
    return int(lo[w]), int(hi[w]), int(index[w])


def _runs(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run index and offset in its run of every element of runs of ``counts``."""
    run = np.repeat(np.arange(len(counts)), counts)
    return run, np.arange(len(run)) - (np.cumsum(counts) - counts)[run]


# Exact form and T / Clifford flag of every EXACT_GATES name, by _GATE_CODE.
_GATE_CODE = {name: i for i, name in enumerate(EXACT_GATES)}
_GATE_COEFFS = np.stack([vec.exact_to_coeffs(u)[0] for u in EXACT_GATES.values()])
_GATE_K = np.array([u.k for u in EXACT_GATES.values()], dtype=np.int64)
_GATE_T = np.isin(list(EXACT_GATES), ["T", "Tdg"])
_GATE_C = np.isin(list(EXACT_GATES), ["H", "S", "Sdg"])


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

    A sampling-free layout other than the last is deferred, its draws
    skipped, when :func:`_can_reach` proves it misses the threshold: it
    can then matter only if every layout misses, and runs only then.
    Words and generator state equal those of running every layout.

    ``t_budgets`` reproduces the paper interface exactly: the ladder is
    then ``t_budgets[:min_tensors], ..., t_budgets[:len(t_budgets)]``.
    """
    check_unitary_2x2(target, "target", TrasynArgumentError)
    if t_budgets is not None:
        if not 1 <= min_tensors <= len(budget_ranges(t_budgets)):
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
    max_budget = max(r[1] for b in schedule for r in budget_ranges(b))
    if table is None:
        table = get_table(max_budget)
    _check_table_budget(table, max_budget)
    words: list[list[GateSequence]] = [[] for _ in schedule]
    indexed = {r for budgets in schedule for r in budget_ranges(budgets)[1:]}
    for i, budgets in enumerate(schedule):
        # Further attempts of a sampling-free rung would repeat its word.
        free = _sampling_free(len(budgets), refine=True)
        runs = 1 if free else attempts
        if (error_threshold is not None and free and i < len(schedule) - 1
                and not _can_reach(target, table, budgets, error_threshold,
                                   indexed)):
            runs = 0  # deferred: its word misses the threshold
        for _ in range(runs):
            cand = synthesize(
                target, budgets, n_samples=n_samples, rng=rng, table=table
            ).sequence
            # Every earlier word missed, so a hit is also the best word.
            if error_threshold is not None and cand.error < error_threshold:
                return cand
            words[i].append(cand)
        rng.random((attempts - runs) * _rung_draws(len(budgets), n_samples))
    # Every rung missed (or no threshold).  A deferred rung's word does not
    # depend on the generator, which is past it; it runs if it may win.
    error = min(w.error for ws in words for w in ws)
    for i, ws in enumerate(words):
        if not ws and _can_reach(target, table, schedule[i], error, indexed):
            ws.append(synthesize(target, schedule[i], table=table,
                                 rng=np.random.default_rng(0)).sequence)
            error = min(error, ws[0].error)
    return min((w for ws in words for w in ws), key=_quality)  # first best


def _quality(seq: GateSequence) -> tuple[float, int, int]:
    return (seq.error, seq.t_count, seq.clifford_count)
