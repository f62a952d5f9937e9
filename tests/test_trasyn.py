"""Tests for the trasyn synthesizer (steps 1-3 and Algorithm 1)."""

import importlib
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.enumeration import build_table, get_table
from repro.enumeration import vectorized as vec
from repro.enumeration.clifford_t import _SYLLABLES
from repro.gates.exact import ExactUnitary
from repro.linalg import GATES, haar_random_u2, rz, trace_distance
from repro.synthesis import simplify_sequence, synthesize, trasyn
from repro.synthesis.meet import best_pair, pair_reaches
from repro.synthesis.sequences import matrix_of
from repro.synthesis.trasyn import (
    _GATE_C,
    _GATE_CODE,
    _GATE_COEFFS,
    _GATE_K,
    _GATE_T,
    _TABLE_MEMO,
    TrasynArgumentError,
    _amp_to_error,
    _can_reach,
    _quality,
    layout_mps,
    layout_slots,
    schedule_for_threshold,
)
from repro.tensornet import TraceMPS


@pytest.fixture(scope="module")
def table6():
    return get_table(6)


@pytest.fixture(scope="module")
def table4():
    return get_table(4)


class TestSynthesize:
    def test_single_slot_is_optimal(self, table6):
        rng = np.random.default_rng(0)
        u = haar_random_u2(rng)
        res = synthesize(u, [6], rng=rng, table=table6)
        # Exhaustive: no table entry may beat the reported error.
        best = min(
            trace_distance(u, m) for m in table6.mats[::13]
        )  # subsample for speed; the reported error must be <= any of them
        assert res.sequence.error <= best + 1e-12
        assert res.sequence.verify(u)

    def test_exact_target_recovered(self, table6):
        # A target that IS a Clifford+T word must synthesize to error ~0.
        target = matrix_of(("H", "T", "S", "H", "T"))
        res = synthesize(target, [6], rng=np.random.default_rng(1), table=table6)
        assert res.sequence.error < 1e-7
        assert res.sequence.t_count <= 2

    @pytest.mark.parametrize("n_tensors", [2, 3])
    def test_multi_tensor_verifies(self, table6, n_tensors):
        rng = np.random.default_rng(2)
        u = haar_random_u2(rng)
        res = synthesize(u, [6] * n_tensors, n_samples=200, rng=rng, table=table6)
        assert res.sequence.verify(u)
        assert res.sequence.t_count <= 6 * n_tensors

    def test_more_tensors_not_worse(self, table6):
        rng = np.random.default_rng(3)
        u = haar_random_u2(rng)
        e1 = synthesize(u, [6], rng=rng, table=table6).sequence.error
        e2 = synthesize(u, [6, 6], n_samples=400, rng=rng, table=table6).sequence.error
        assert e2 <= e1 + 1e-9

    def test_t_budget_respected(self, table6):
        rng = np.random.default_rng(4)
        u = haar_random_u2(rng)
        for budgets in ([3], [3, 3], [2, 2, 2]):
            res = synthesize(u, budgets, n_samples=100, rng=rng, table=table6)
            assert res.sequence.t_count <= sum(budgets)

    def test_t_range_budgets(self, table6):
        rng = np.random.default_rng(5)
        u = haar_random_u2(rng)
        res = synthesize(u, [(2, 4), (0, 6)], n_samples=100, rng=rng, table=table6)
        assert res.sequence.verify(u)

    def test_rejects_budget_above_table(self, table6):
        with pytest.raises(TrasynArgumentError, match="table budget 6"):
            synthesize(np.eye(2), [7, 7], table=table6)

    def test_rejects_empty_budget_list(self, table6):
        with pytest.raises(ValueError, match="t_budgets"):
            synthesize(np.eye(2), [], table=table6)

    @pytest.mark.parametrize("n_samples", [0, -3])
    def test_rejects_nonpositive_samples(self, table6, n_samples):
        with pytest.raises(ValueError, match="n_samples"):
            synthesize(np.eye(2), [4, 3], n_samples=n_samples, table=table6)


class TestSimplify:
    def test_cancels_inverse_pairs(self, table6):
        gates = ["H", "H", "T", "Tdg", "S", "Sdg"]
        out = simplify_sequence(gates, table6)
        assert out == []

    def test_merges_t_t_to_s(self, table6):
        out = simplify_sequence(["T", "T"], table6)
        assert out in (["S"], ["Sdg", "Z"])
        assert sum(1 for g in out if g in ("T", "Tdg")) == 0

    def test_preserves_matrix_up_to_phase(self, table6):
        rng = np.random.default_rng(6)
        # Random concatenation of two table sequences.
        for _ in range(5):
            i, j = rng.integers(0, len(table6), size=2)
            gates = list(table6.sequence(int(i))) + list(table6.sequence(int(j)))
            out = simplify_sequence(gates, table6)
            before = ExactUnitary.from_gates(gates)
            after = (
                ExactUnitary.from_gates(out) if out else ExactUnitary.identity()
            )
            assert before.equals_up_to_phase(after)

    def test_never_increases_cost(self, table6):
        rng = np.random.default_rng(7)
        for _ in range(5):
            i, j = rng.integers(0, len(table6), size=2)
            gates = list(table6.sequence(int(i))) + list(table6.sequence(int(j)))
            out = simplify_sequence(gates, table6)
            t_before = sum(1 for g in gates if g in ("T", "Tdg"))
            t_after = sum(1 for g in out if g in ("T", "Tdg"))
            assert t_after <= t_before


def _simplify_reference(gates, table, max_window_t=None):
    """Sequential step-3 oracle: one exact product and lookup per window."""
    if max_window_t is None:
        max_window_t = table.budget
    gates = list(gates)
    changed = True
    while changed:
        changed = False
        n = len(gates)
        i = 0
        while i < n:
            window = ExactUnitary.from_gate(gates[i])
            window_t = 1 if gates[i] in ("T", "Tdg") else 0
            best_rewrite = None
            j = i + 1
            end = i + 1
            while j < n:
                g = gates[j]
                window = window @ ExactUnitary.from_gate(g)
                window_t += 1 if g in ("T", "Tdg") else 0
                j += 1
                if window_t > max_window_t:
                    break
                if j - i < 2:
                    continue
                idx = table.lookup(window)
                if idx is None:
                    continue
                new_seq = table.sequence(idx)
                if _segment_cost(new_seq) < _segment_cost(gates[i:j]):
                    best_rewrite = list(new_seq)
                    end = j
            if best_rewrite is not None:
                gates[i:end] = best_rewrite
                changed = True
                n = len(gates)
            else:
                i += 1
    return [g for g in gates if g != "I"]


def _segment_cost(gates):
    t = sum(1 for g in gates if g in ("T", "Tdg"))
    cliff = sum(1 for g in gates if g in ("H", "S", "Sdg"))
    return (t, cliff, len(gates))


class TestSimplifyOracle:
    """The batched step 3 rewrites exactly as the sequential oracle."""

    @settings(max_examples=150, deadline=None)
    @given(
        gates=st.lists(
            st.sampled_from(["H", "S", "Sdg", "T", "Tdg", "X", "Z", "I"]),
            max_size=40,
        ),
        max_window_t=st.sampled_from([None, 2, 4]),
    )
    def test_matches_sequential_reference(self, table6, gates, max_window_t):
        assert simplify_sequence(gates, table6, max_window_t) == (
            _simplify_reference(gates, table6, max_window_t)
        )

    def test_matches_reference_on_synthesized_words(self, table6):
        rng = np.random.default_rng(12)
        for _ in range(4):
            i, j, k = rng.integers(0, len(table6), size=3)
            gates = [g for idx in (i, j, k) for g in table6.sequence(int(idx))]
            assert simplify_sequence(gates, table6) == (
                _simplify_reference(gates, table6)
            )

    def test_rescan_covers_the_window_before_the_last_rewrite(self, table6):
        # A later pass rescans only windows starting before the previous
        # pass's last rewrite; here the next rewrite starts just before it.
        gates = ("X T T H X X H T T X X Tdg T X T H S H Tdg H S S H S X S X Tdg "
                 "S H T H H").split()
        assert simplify_sequence(gates, table6, 2) == (
            _simplify_reference(gates, table6, 2)
        )

    def test_seam_path_matches_reference(self, table6):
        # Words joined at seams, as synthesize hands them over.  Drawing
        # Clifford roots (rows 0-23) often makes words that rewrite
        # across a seam, so the seam bookkeeping after a rewrite runs.
        rewrites = []

        @settings(max_examples=150, deadline=None, database=None)
        @given(
            rows=st.lists(
                st.one_of(st.integers(0, 23), st.integers(0, len(table6) - 1)),
                min_size=2, max_size=4,
            ),
            max_window_t=st.sampled_from([None, 2, 4]),
        )
        def check(rows, max_window_t):
            words = [table6.sequence(r) for r in rows]
            gates = [g for word in words for g in word]
            seams = np.cumsum([len(word) for word in words[:-1]])
            out = simplify_sequence(gates, table6, max_window_t, seams=seams)
            assert out == _simplify_reference(gates, table6, max_window_t)
            rewrites.append(out != gates)

        check()
        assert any(rewrites)

    def test_one_word_makes_no_lookup(self, monkeypatch, table6):
        calls = []
        lookup_batch = table6.lookup_batch
        monkeypatch.setattr(table6, "lookup_batch",
                            lambda *a: calls.append(a) or lookup_batch(*a))
        word = list(table6.sequence(len(table6) - 1))
        assert simplify_sequence(word, table6, seams=[]) == word
        # A one-slot rung hands step 3 a single stored word.
        synthesize(haar_random_u2(np.random.default_rng(3)), [6], table=table6)
        assert calls == []
        simplify_sequence(word, table6)  # every gate boundary a seam
        assert calls

    def test_windows_past_exact_range_raise(self, table6):
        # (HT)^140 has coefficients past 2^30, beyond which int64
        # products of two of them could wrap: step 3 raises, as the
        # reference's lookup does.
        with pytest.raises(OverflowError):
            simplify_sequence(["H", "T"] * 140, table6, 140)

    @pytest.mark.parametrize("seams", [[3, 1], [-1], [9], [1.0], [True], ["a"]])
    def test_bad_seams_raise(self, table6, seams):
        gates = ["H", "T", "H", "T", "S", "H", "T", "H"]
        with pytest.raises(TrasynArgumentError, match="seams"):
            simplify_sequence(gates, table6, seams=seams)


def _improving_rows(table, chunk=20_000):
    """Rows of ``table`` whose stored word has an improving window.

    Improving is step 3's test: the stored word of the window's product
    is cheaper in (T count, Clifford count, length).  By induction over
    the parent chain only a few windows per row need a check: row r's
    word is ``SYLLABLE[prefixes[r]]`` followed by the stored word of
    ``parents[r]``, so a window either lies in that parent word or
    starts in the first syllable.  A Clifford root is checked whole.
    All rows' windows grow one gate per step, in one batch per chunk.
    """
    syllable = np.array([len(tokens) for _, tokens, _ in _SYLLABLES])
    bad = []
    for part in np.array_split(np.arange(len(table)), -(-len(table) // chunk)):
        lengths = table.sequence_lengths[part]
        codes = np.zeros((len(part), lengths.max()), dtype=np.int64)
        for i, r in enumerate(part):
            codes[i, :lengths[i]] = [_GATE_CODE[g] for g in table.sequence(r)]
        root = table.parents[part] < 0
        starts = np.where(root, lengths,
                          syllable[np.where(root, 0, table.prefixes[part])])
        row = np.repeat(np.arange(len(part)), starts)
        a = np.arange(len(row)) - np.repeat(np.cumsum(starts) - starts, starts)
        g = codes[row, a]
        prod, k = _GATE_COEFFS[g], _GATE_K[g]
        t, c, end = _GATE_T[g].astype(np.int64), _GATE_C[g].astype(np.int64), a + 1
        while (live := end < lengths[row]).any():
            row, a, end, prod, k, t, c = (
                x[live] for x in (row, a, end, prod, k, t, c)
            )
            g = codes[row, end]
            prod, k = vec.reduce_batch(
                *vec.matmul(prod, k, _GATE_COEFFS[g], _GATE_K[g])
            )
            t, c, end = t + _GATE_T[g], c + _GATE_C[g], end + 1
            index = table.lookup_batch(prod, k)
            assert (index >= 0).all()  # every T count <= budget is stored
            new = (table.t_counts[index], table.hs_costs[index],
                   table.sequence_lengths[index])
            better = _packed_cost(*new) < _packed_cost(t, c, end - a)
            bad.extend(part[row[better]].tolist())
    return sorted(set(bad))


def _packed_cost(t, cliffords, length):
    return (t << 40) + (cliffords << 20) + length


class TestSeamInvariant:
    """No window inside a stored word improves: step 3 scans seams only."""

    def test_no_window_inside_a_b8_word_improves(self):
        assert _improving_rows(get_table(8)) == []

    @pytest.mark.slow
    def test_no_window_inside_a_b10_word_improves(self):
        assert _improving_rows(get_table(10)) == []

    def test_checker_flags_a_cheaper_stored_word(self):
        table = build_table(3)
        row = int(np.nonzero(table.t_counts == 1)[0][1])
        table.hs_costs = table.hs_costs.copy()
        table.hs_costs[row] = -1
        assert row in _improving_rows(table)


class TestAlgorithm1:
    def test_threshold_mode_meets_or_best_effort(self):
        rng = np.random.default_rng(8)
        u = haar_random_u2(rng)
        seq = trasyn(u, error_threshold=0.08, rng=rng)
        assert seq.error < 0.08  # easily reachable threshold

    def test_explicit_budget_interface(self, table6):
        rng = np.random.default_rng(9)
        u = haar_random_u2(rng)
        seq = trasyn(u, t_budgets=[6, 6], rng=rng, table=table6, n_samples=100)
        assert seq.verify(u)

    def test_schedule_ladder_shapes(self):
        assert schedule_for_threshold(0.5) == [[8]]
        ladder = schedule_for_threshold(0.001)
        assert ladder[-1] == [12, 12, 8]
        assert all(len(b) >= 1 for b in ladder)

    def test_rz_target(self, table6):
        rng = np.random.default_rng(10)
        seq = trasyn(rz(0.91), t_budgets=[6, 6], rng=rng, table=table6,
                     n_samples=200)
        assert trace_distance(rz(0.91), seq.matrix()) == pytest.approx(
            seq.error, abs=1e-9
        )

    @pytest.mark.parametrize("min_tensors", [0, 3])
    def test_rejects_min_tensors_outside_budgets(self, min_tensors):
        # No table argument: the check must come before table sizing.
        with pytest.raises(ValueError, match="min_tensors"):
            trasyn(np.eye(2), t_budgets=[4, 3], min_tensors=min_tensors)

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"t_budgets": []}, "t_budgets"),
            ({"schedule": []}, "schedule"),
            ({"schedule": [[4], []]}, "schedule"),
            ({"t_budgets": [4, 3], "n_samples": 0}, "n_samples"),
            ({"t_budgets": [4, 3], "attempts": 0}, "attempts"),
        ],
    )
    def test_rejects_empty_arguments(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            trasyn(np.eye(2), **kwargs)

    @pytest.mark.parametrize(
        "target",
        [
            3 * np.eye(2),
            np.array([[1, 1], [0, 1]]),
            np.array([[np.nan, 0], [0, 1]]),
            np.array([[1, 0], [0, np.inf]]),
            np.eye(3),
        ],
    )
    def test_rejects_invalid_target_before_table_load(
        self, monkeypatch, target
    ):
        # The package re-exports the function under the module's name.
        trasyn_mod = importlib.import_module("repro.synthesis.trasyn")

        def no_tables(budget):
            raise AssertionError("table loaded before validation")

        monkeypatch.setattr(trasyn_mod, "get_table", no_tables)
        with pytest.raises(TrasynArgumentError, match="target"):
            trasyn(target, t_budgets=[4, 3])
        with pytest.raises(TrasynArgumentError, match="target"):
            synthesize(target, [4, 3])

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"schedule": [[6, 4], [8, 8]]},
            {"t_budgets": [6, 7]},
            {"error_threshold": 1e-3},
        ],
    )
    def test_rejects_small_table_before_any_rung(
        self, monkeypatch, table6, kwargs
    ):
        trasyn_mod = importlib.import_module("repro.synthesis.trasyn")

        def no_rungs(*args, **kw):
            raise AssertionError("rung ran before the table check")

        monkeypatch.setattr(trasyn_mod, "synthesize", no_rungs)
        with pytest.raises(TrasynArgumentError, match="table budget 6"):
            trasyn(np.eye(2), table=table6, **kwargs)

    @pytest.mark.parametrize(
        "t_budgets",
        [
            [(3, 1)],
            [-1],
            [(0, 2), (-2, -1)],
            [(3, 1), (0, 2)],
            [np.int64(-1), 3],
            [4.0],
            [True, 3],
            [(0, 1, 2)],
            [(0, 2.5)],
            ["4"],
            [None],
            [],
            None,
            4,
        ],
    )
    def test_rejects_bad_budget_entries(self, monkeypatch, table6, t_budgets):
        # Every bad entry raises the typed error before any table or rung
        # work, without a NumPy warning.
        trasyn_mod = importlib.import_module("repro.synthesis.trasyn")

        def no_rungs(*args, **kw):
            raise AssertionError("rung ran before the budget check")

        u = haar_random_u2(np.random.default_rng(12))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrasynArgumentError, match="t_budgets"):
                synthesize(u, t_budgets, table=table6)
            monkeypatch.setattr(trasyn_mod, "synthesize", no_rungs)
            with pytest.raises(TrasynArgumentError, match="budget"):
                trasyn(u, schedule=[[6], t_budgets], table=table6)

    @pytest.mark.parametrize(
        "t_budgets",
        [[np.int64(4), 3], [(np.int64(0), np.int64(4)), 3], [[0, 4], (0, 3)],
         np.array([4, 3]), np.array([[0, 4], [0, 3]])],
    )
    def test_numpy_and_list_budgets_match_ints(self, table6, t_budgets):
        u = haar_random_u2(np.random.default_rng(13))
        want = synthesize(u, [4, 3], rng=np.random.default_rng(1), table=table6)
        got = synthesize(u, t_budgets, rng=np.random.default_rng(1), table=table6)
        assert got == want

    def test_clifford_target_is_free(self, table6):
        seq = trasyn(GATES["H"], t_budgets=[6], rng=np.random.default_rng(11),
                     table=table6)
        assert seq.error < 1e-7
        assert seq.t_count == 0


def _canonical_pair(target, table, ranges):
    """Brute-force canonical argmax over every two-slot pair.

    Every pair within 1e-12 of the best |Tr(U^dag A B)| ties; the lowest
    T-count sum wins, then the lowest Clifford cost sum, then the lowest
    table index of slot 0, then of slot 1.
    """
    slots = layout_slots(table, ranges)
    # Tr(U^dag A B) = sum_ij (U^dag A)_ij B_ji, one BLAS product per chunk
    # of slot-0 rows; each chunk keeps the pairs tying its own best.
    left = (target.conj().T @ slots[0].mats).reshape(-1, 4)
    right = slots[1].mats.transpose(0, 2, 1).reshape(-1, 4).T
    found = []
    for start in range(0, len(left), 512):
        amps = np.abs(left[start:start + 512] @ right)
        a, b = np.nonzero(amps >= amps.max() - 1e-12)
        found.append((a + start, b, amps[a, b]))
    a, b, amps = (np.concatenate(col) for col in zip(*found))
    keep = amps >= amps.max() - 1e-12
    i0, i1 = slots[0].rows[a[keep]], slots[1].rows[b[keep]]
    pick = np.lexsort((i1, i0, table.hs_costs[i0] + table.hs_costs[i1],
                       table.t_counts[i0] + table.t_counts[i1]))[0]
    return int(i0[pick]), int(i1[pick])


def _pair_word(table, pair):
    return tuple(g for i in pair for g in table.sequence(i))


class TestSamplingFreeTwoSlot:
    """Two-slot rungs are solved exactly; the generator stream stays."""

    @pytest.mark.parametrize("layout", [[6, 4], [4, 6], [6, 6]])
    def test_word_is_canonical_argmax(self, table6, layout):
        rng = np.random.default_rng(41)
        targets = [haar_random_u2(rng) for _ in range(8)]
        targets += [rz(theta) for theta in rng.uniform(0, 2 * np.pi, 6)]
        ranges = [(0, b) for b in layout]
        slots = layout_slots(table6, ranges)
        for k, u in enumerate(targets):
            pair = _canonical_pair(u, table6, ranges)
            a, b, amp = best_pair(u, slots)
            assert (int(slots[0].rows[a]), int(slots[1].rows[b])) == pair
            res = synthesize(u, layout, n_samples=300, postprocess=False,
                             rng=np.random.default_rng(k), table=table6)
            assert res.sequence.gates == _pair_word(table6, pair)
            assert res.sequence.error == _amp_to_error(amp)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_two_slot_is_brute_force_optimum(self, table4, seed):
        u = haar_random_u2(np.random.default_rng(seed))
        res = synthesize(u, [4, 3], n_samples=50, postprocess=False,
                         rng=np.random.default_rng(seed), table=table4)
        slots = layout_slots(table4, [(0, 4), (0, 3)])
        left = np.einsum("ij,ajk->aik", u.conj().T, slots[0].mats)
        amps = np.einsum("aij,bji->ab", left, slots[1].mats)
        tv = np.minimum(np.abs(amps).max() / 2.0, 1.0)
        assert res.sequence.error == pytest.approx(
            np.sqrt(max(0.0, 1.0 - tv * tv)), abs=1e-12
        )
        pair = _canonical_pair(u, table4, [(0, 4), (0, 3)])
        assert res.sequence.gates == _pair_word(table4, pair)

    def test_builds_no_mps_tail_or_refinement(self, monkeypatch):
        from repro.enumeration import build_table

        trasyn_mod = importlib.import_module("repro.synthesis.trasyn")

        def forbidden(*args, **kwargs):
            raise AssertionError("a two-slot rung left the pair search")

        for name in ("TraceMPS", "CanonicalTail", "refine_pairs",
                     "_refine_sweeps"):
            monkeypatch.setattr(trasyn_mod, name, forbidden)
        table = build_table(3)  # fresh, so its memo holds no tail yet
        u = haar_random_u2(np.random.default_rng(46))
        synthesize(u, [3, 2], rng=np.random.default_rng(9), table=table)
        assert ((0, 3), (0, 2)) not in _TABLE_MEMO[table]

    def test_first_slot_builds_no_index(self):
        # Only a pair's second slot is queried: the first slot's k-d tree
        # is never needed, so it is never built.
        from repro.enumeration import build_table

        table = build_table(3)  # fresh, so its slots hold no index yet
        u = haar_random_u2(np.random.default_rng(47))
        synthesize(u, [3, 2], rng=np.random.default_rng(9), table=table)
        first, second = layout_slots(table, [(0, 3), (0, 2)])
        assert first._index is None and first._quaternions is not None
        assert second._index is not None and second._quaternions is None

    def test_generator_advances_as_if_sampled(self, table6):
        u = haar_random_u2(np.random.default_rng(42))
        free, sampled = np.random.default_rng(5), np.random.default_rng(5)
        synthesize(u, [6, 4], n_samples=300, rng=free, table=table6)
        synthesize(u, [6, 4], n_samples=300, rng=sampled, table=table6,
                   refine=False)
        assert free.bit_generator.state == sampled.bit_generator.state

    @pytest.mark.parametrize(
        "layout, kwargs, drawn",
        [
            ([6, 4], {}, 0),
            ([6, 4], {"refine": False}, 300),
            ([4, 4, 3], {"refine": False}, 300),
            ([4, 4, 3], {}, 300),
            ([6], {}, 0),
        ],
    )
    def test_samples_drawn(self, table6, layout, kwargs, drawn):
        u = haar_random_u2(np.random.default_rng(43))
        res = synthesize(u, layout, n_samples=300,
                         rng=np.random.default_rng(6), table=table6, **kwargs)
        assert res.samples_drawn == drawn

    @pytest.mark.parametrize("error_threshold", [None, 1e-9])
    def test_attempts_equal_repeated_calls(
        self, monkeypatch, table6, error_threshold
    ):
        trasyn_mod = importlib.import_module("repro.synthesis.trasyn")
        u = haar_random_u2(np.random.default_rng(44))
        ladder = [[6], [6, 4], [4, 4, 3]]
        loop_rng = np.random.default_rng(7)
        best = None
        for budgets in ladder:
            for _ in range(3):
                cand = synthesize(u, budgets, n_samples=200, rng=loop_rng,
                                  table=table6).sequence
                if best is None or _quality(cand) < _quality(best):
                    best = cand
        calls = []
        real = trasyn_mod.synthesize

        def counting(target, budgets, **kw):
            calls.append(len(budgets))
            return real(target, budgets, **kw)

        monkeypatch.setattr(trasyn_mod, "synthesize", counting)
        rng = np.random.default_rng(7)
        seq = trasyn(u, schedule=ladder, attempts=3, n_samples=200, rng=rng,
                     table=table6, error_threshold=error_threshold)
        assert seq == best
        assert rng.bit_generator.state == loop_rng.bit_generator.state
        # Sampling-free rungs run once.  At a threshold every rung misses,
        # the 1- and 2-slot rungs are deferred, then skipped: neither may
        # beat the 3-slot word.
        assert calls == ([1, 2, 3, 3, 3] if error_threshold is None
                         else [3, 3, 3])

    def test_attempts_stop_at_threshold_without_advancing(self, table6):
        u = haar_random_u2(np.random.default_rng(45))
        loop_rng = np.random.default_rng(8)
        first = synthesize(u, [6, 4], n_samples=200, rng=loop_rng,
                           table=table6).sequence
        rng = np.random.default_rng(8)
        seq = trasyn(u, schedule=[[6, 4]], attempts=3, n_samples=200,
                     rng=rng, table=table6, error_threshold=first.error * 1.01)
        assert seq == first
        assert rng.bit_generator.state == loop_rng.bit_generator.state


def _eager_trasyn(u, schedule, error_threshold, attempts, n_samples, rng,
                  table):
    """Algorithm 1 with every rung run in order: the deferral's oracle."""
    best = None
    for budgets in schedule:
        runs = 1 if len(budgets) <= 2 else attempts
        for _ in range(runs):
            cand = synthesize(u, budgets, n_samples=n_samples, rng=rng,
                              table=table).sequence
            if best is None or _quality(cand) < _quality(best):
                best = cand
            if error_threshold is not None and best.error < error_threshold:
                return best
        draws = 0 if len(budgets) == 1 else n_samples * len(budgets)
        rng.random((attempts - runs) * draws)
    return best


# Rungs a budget-6 table serves; the last samples an MPS.
_RUNG_POOL = ([3], [6], [4, 3], [6, 4], [3, 6], [6, 6], [4, 4, 3])


@st.composite
def _ladders(draw):
    rungs = draw(st.lists(st.sampled_from(_RUNG_POOL[:-1]), max_size=4,
                          unique_by=tuple))
    rungs.insert(draw(st.integers(0, len(rungs))), _RUNG_POOL[-1])
    return [list(r) for r in rungs]


class TestLadderDeferral:
    """Threshold-mode rungs that cannot meet it are deferred, exactly."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           thresholds=st.lists(st.floats(1e-4, 0.2), min_size=2, max_size=2),
           schedule=_ladders(), attempts=st.integers(1, 3))
    def test_matches_eager_ladder(self, table6, seed, thresholds, schedule,
                                  attempts):
        targets = [haar_random_u2(np.random.default_rng([seed, i]))
                   for i in range(2)]
        # One generator shared by consecutive calls on each side.
        eager_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for u, thr in zip(targets, thresholds):
            want = _eager_trasyn(u, schedule, thr, attempts, 12, eager_rng,
                                 table6)
            got = trasyn(u, schedule=schedule, error_threshold=thr,
                         attempts=attempts, n_samples=12, rng=rng,
                         table=table6)
            assert got == want
            assert rng.bit_generator.state == eager_rng.bit_generator.state

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           rung=st.sampled_from(_RUNG_POOL[:-1]),
           scale=st.floats(0.5, 2.0), reverse=st.booleans())
    def test_cannot_meet_is_sound_and_exact(self, table6, seed, rung, scale,
                                            reverse):
        u = haar_random_u2(np.random.default_rng(seed))
        error = synthesize(u, list(rung), rng=np.random.default_rng(0),
                           table=table6).sequence.error
        thr = error * scale
        indexed = {(0, rung[0])} if reverse else set()
        can = _can_reach(u, table6, list(rung), thr, indexed)
        if not can:
            assert error >= thr
        if abs(error - thr) > 1e-6 * thr:
            assert can == (error < thr)

    def test_both_query_directions_match_brute_force(self, table4):
        rng = np.random.default_rng(46)
        slots = layout_slots(table4, [(0, 4), (0, 2)])
        for _ in range(20):
            u = haar_random_u2(rng)
            left = np.einsum("ij,ajk->aik", u.conj().T, slots[0].mats)
            top = np.abs(np.einsum("aij,bji->ab", left, slots[1].mats)).max()
            for floor in (top - 1e-6, top + 1e-6):
                assert pair_reaches(u, slots, floor) == (floor < top)
                assert pair_reaches(u, slots, floor, reverse=True) == (floor < top)

    def test_all_miss_fallback_returns_deferred_rung(self, monkeypatch,
                                                     table6):
        trasyn_mod = importlib.import_module("repro.synthesis.trasyn")
        u = haar_random_u2(np.random.default_rng(49))
        schedule = [[3], [6, 6], [6]]
        eager_rng = np.random.default_rng(9)
        want = _eager_trasyn(u, schedule, 1e-9, 2, 50, eager_rng, table6)
        assert want == synthesize(u, [6, 6], table=table6,
                                  rng=np.random.default_rng(0)).sequence
        calls = []
        real = trasyn_mod.synthesize

        def counting(target, budgets, **kw):
            calls.append(budgets)
            return real(target, budgets, **kw)

        monkeypatch.setattr(trasyn_mod, "synthesize", counting)
        rng = np.random.default_rng(9)
        got = trasyn(u, schedule=schedule, error_threshold=1e-9, attempts=2,
                     n_samples=50, rng=rng, table=table6)
        assert got == want
        # The last rung runs first; [3] cannot beat it, [6, 6] can.
        assert calls == [[6], [6, 6]]
        assert rng.bit_generator.state == eager_rng.bit_generator.state


def _padded_start_error(u, table, ranges):
    """Error of the padded two-slot start: best_pair, then the identity."""
    return _amp_to_error(best_pair(u, layout_slots(table, ranges[:2]))[2])


class TestMultiStartThreeSlot:
    """Three-slot rungs polish the padded two-slot optimum and samples."""

    @pytest.mark.parametrize(
        "ranges", [[(0, 4), (0, 4), (0, 3)], [(0, 6), (2, 4), (0, 3)]]
    )
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_never_above_padded_start(self, table6, ranges, seed):
        rng = np.random.default_rng(seed)
        u = haar_random_u2(rng)
        res = synthesize(u, ranges, n_samples=40, rng=rng,
                         postprocess=False, table=table6)
        assert res.sequence.error <= _padded_start_error(u, table6, ranges)
        assert res.sequence.verify(u)

    @pytest.mark.parametrize("n_samples, starts", [(1, 2), (300, 5)])
    def test_polishes_padded_start_and_distinct_samples(
        self, monkeypatch, table6, n_samples, starts
    ):
        # One sample is fewer distinct starts than _STARTS: the padded
        # start and that sample are polished, nothing else.
        trasyn_mod = importlib.import_module("repro.synthesis.trasyn")
        calls = []
        real = trasyn_mod.refine_pairs

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(trasyn_mod, "refine_pairs", counting)
        u = haar_random_u2(np.random.default_rng(47))
        res = synthesize(u, [4, 4, 3], n_samples=n_samples,
                         rng=np.random.default_rng(10), table=table6)
        assert res.samples_drawn == n_samples
        assert len(calls) == starts
        assert res.sequence.verify(u)
        assert res.sequence.error <= _padded_start_error(
            u, table6, [(0, 4), (0, 4), (0, 3)]
        )


_DIGEST_SCRIPT = """
import hashlib
import numpy as np
from repro.enumeration import get_table
from repro.linalg import haar_random_u2
from repro.synthesis import synthesize, trasyn

def digest(seq):
    key = repr((tuple(seq.gates), repr(seq.error)))
    return hashlib.sha256(key.encode()).hexdigest()

t6 = get_table(6)
for layout, seed in [((6,), 21), ((6, 4), 22), ((6, 6), 23), ((4, 4, 3), 24)]:
    rng = np.random.default_rng(seed)
    u = haar_random_u2(rng)
    res = synthesize(u, list(layout), n_samples=300, rng=rng, table=t6)
    print(digest(res.sequence))
rng = np.random.default_rng(25)
u = haar_random_u2(rng)
print(digest(trasyn(u, error_threshold=0.02, rng=rng)))
ladder = [[6, 4], [4, 4, 3]]
for seed, attempts in [(26, 1), (27, 2)]:
    rng = np.random.default_rng(seed)
    u = haar_random_u2(rng)
    seq = trasyn(u, schedule=ladder, attempts=attempts, n_samples=300,
                 rng=rng, table=t6)
    print(digest(seq))
    print(repr(rng.random()))  # the generator's position after the call
"""

# Per call of _DIGEST_SCRIPT, the sha256 of (gates, repr(error)); after
# each ladder call also the generator's next draw.  The (6,) and
# threshold-ladder digests were recorded before the pruned pair search,
# memoized MPS tail, byte-bounded sampling chunks and batched step 3
# were introduced.  The (6, 4) and (6, 6) digests were recorded when
# two-slot rungs took the canonical tie rule; the (4, 4, 3) and ladder
# word digests when three-slot rungs took the multi-start search.  The
# two draws were recorded while every two-slot rung still sampled, so
# they pin the generator advance of sampling-free rungs.
_PINNED_DIGESTS = [
    "681606ef3f8e29e98ac8d3fc1eb76250be1600eb4064390cfaf8ed8cc50bfb28",
    "b536b5cf6e2d451a5ed0d81f519e9d504a46954b537d27a235b43c4b9eb81220",
    "f835ab45ecb0f03a3ddfddb8b1e48328c042f7de9ff9f11f9a2283a7f5fea20c",
    "89b898eef3b9561f9d463afbb368386cf6b31d6cd2b26925a3019f5331c1a58a",
    "54dcfdc861eb14a39a502f89a32a562d04a678e77b1b8660584416616abe360c",
    "d11202ef8ca31aab24b44b22f2c1894583e0ea190459c626dfa1b0dd2864cb76",
    "0.3434655400688488",
    "ca8eb2ab1c30eb4ed7e34d715bfba420ff97e529ac9774ba5d9133e311123310",
    "0.09497530936078724",
]


class TestByteIdentity:
    """Pinned outputs at fixed seeds: hot-path rewrites must not move them.

    The calls run in a subprocess with single-threaded BLAS (the digests
    are those of single-threaded OpenBLAS on x86-64).  The pinning is a
    guard, not a known need: with OpenBLAS 0.3.31 on x86-64 the script
    prints these same nine lines at ``OPENBLAS_NUM_THREADS`` 1, 2 and 4.
    A BLAS whose thread count changes float reduction order could still
    move the sampled words.
    """

    def test_synthesize_and_ladder_digests(self):
        import repro

        env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            env[var] = "1"
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        out = subprocess.run(
            [sys.executable, "-c", _DIGEST_SCRIPT], env=env,
            capture_output=True, text=True, check=True,
        ).stdout.split()
        assert out == _PINNED_DIGESTS


class TestSlotLayout:
    @pytest.mark.parametrize("seed", [31, 32])
    def test_memoized_tail_matches_fresh_build(self, table6, seed):
        ranges = [(0, 6), (2, 4), (0, 3)]
        target = haar_random_u2(np.random.default_rng(seed))
        fresh = TraceMPS(
            target, [table6.mats[table6.indices_for_t_range(lo, hi)]
                     for lo, hi in ranges]
        )
        memo = layout_mps(table6, ranges, target)  # tail shared by both seeds
        assert len(memo.tensors) == len(fresh.tensors)
        for a, b in zip(memo.tensors, fresh.tensors):
            assert np.array_equal(a, b)
        c1, a1 = memo.sample(200, np.random.default_rng(4))
        c2, a2 = fresh.sample(200, np.random.default_rng(4))
        assert np.array_equal(c1, c2) and np.array_equal(a1, a2)

    def test_layout_is_shared_and_read_only(self, table6):
        ranges = [(0, 6), (0, 6)]
        slots = layout_slots(table6, ranges)
        again = layout_slots(table6, ranges)
        assert all(a is b for a, b in zip(again, slots))
        assert slots[0] is slots[1]  # one Slot per T range
        assert layout_slots(table6, [(0, 6)])[0] is slots[0]
        u = haar_random_u2(np.random.default_rng(33))
        tail = layout_mps(table6, ranges, u).tensors[1:]
        assert layout_mps(table6, ranges, np.eye(2)).tensors[1] is tail[0]
        slot = slots[0]
        for a in (slot.rows, slot.mats, *slot.costs, slot.cosets,
                  slot.quaternions, *tail):
            with pytest.raises(ValueError):
                a.flat[0] = 0

    def test_concurrent_first_use_builds_one_layout(self):
        import threading

        from repro.enumeration import build_table

        table = build_table(4)
        ranges = [(0, 4), (1, 3), (0, 2)]
        got = []
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait(timeout=30)
            slots = layout_slots(table, ranges)
            got.append((
                *slots, *(s.index for s in slots),
                *(s.quaternions for s in slots),
                layout_mps(table, ranges, np.eye(2)).tensors[1],
            ))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert len(got) == 8
        assert all(a is b for built in got for a, b in zip(built, got[0]))


class TestIndexCacheLifetime:
    """Regression: the per-table memo must not key entries by id(table).

    id() values are reused after garbage collection, so an id-keyed
    cache could silently serve an index built from a freed table.  The
    memo is a WeakKeyDictionary keyed by the table object itself.
    """

    def test_index_always_matches_current_table(self):
        import gc

        from repro.enumeration import build_table

        # Repeatedly build short-lived tables: CPython happily reuses
        # the freed object's address (== its id), which made the old
        # id-keyed cache return a stale index for a *different* slice.
        for lo, hi in [(0, 2), (0, 1), (1, 2), (0, 2)]:
            table = build_table(2)
            index = layout_slots(table, [(lo, hi)])[0].index
            expect = table.mats[table.indices_for_t_range(lo, hi)]
            assert index.mats.shape == expect.shape
            assert np.array_equal(index.mats, expect)
            del table, index
            gc.collect()

    def test_entries_die_with_their_table(self):
        import gc

        from repro.enumeration import build_table

        table = build_table(1)
        assert layout_slots(table, [(0, 1)])[0].index is not None
        assert table in _TABLE_MEMO
        before = len(_TABLE_MEMO)
        del table
        gc.collect()
        assert len(_TABLE_MEMO) == before - 1

    def test_tails_die_with_their_table(self):
        import gc
        import weakref

        from repro.enumeration import build_table

        table = build_table(2)
        ranges = [(0, 2), (0, 1)]
        mps = layout_mps(table, ranges, np.eye(2))
        tail = weakref.ref(_TABLE_MEMO[table][tuple(ranges)])
        mats = weakref.ref(layout_slots(table, ranges)[0].mats)
        before = len(_TABLE_MEMO)
        del table, mps
        gc.collect()
        assert tail() is None and mats() is None
        assert len(_TABLE_MEMO) == before - 1

    def test_same_table_reuses_index(self):
        from repro.enumeration import build_table

        table = build_table(1)
        index = layout_slots(table, [(0, 1)])[0].index
        assert layout_slots(table, [(0, 1)])[0].index is index
