"""Focused tests: meet-in-the-middle refinement and workflow internals."""

import math

import numpy as np
import pytest

from repro.circuits import Circuit, rotation_count
from repro.enumeration import get_table
from repro.linalg import haar_random_u2, rz, trace_distance
import repro.synthesis.meet as meet
from repro.synthesis.meet import QuaternionIndex, Slot, best_pair, refine_pairs
from repro.synthesis.trasyn import layout_slots
from repro.experiments.workflows import best_transpile, matched_thresholds
from repro.pipeline import compile_circuit


@pytest.fixture(scope="module")
def table6():
    return get_table(6)


def _slots(table, ranges):
    """Slot matrices, Slots and (T count, Clifford cost)s."""
    slots = layout_slots(table, ranges)
    return [s.mats for s in slots], slots, [s.costs for s in slots]


class TestRefinePairs:
    def test_improves_or_keeps_amplitude(self, table6):
        rng = np.random.default_rng(0)
        mats, slots, _ = _slots(table6, [(0, 6)] * 2)
        target = haar_random_u2(rng)
        start = np.array([0, 0])
        udag = target.conj().T
        amp0 = abs(np.trace(udag @ mats[0][0] @ mats[1][0]))
        choice, amp = refine_pairs(target, slots, start)
        assert abs(amp) >= amp0 - 1e-12

    def test_two_slot_near_optimal(self, table6):
        # Pair refinement from any start must land close to the true
        # 2-slot optimum.
        rng = np.random.default_rng(1)
        _, slots, _ = _slots(table6, [(0, 6)] * 2)
        target = haar_random_u2(rng)
        _, amp = refine_pairs(target, slots, np.array([0, 0]))
        err = math.sqrt(max(0.0, 1 - (abs(amp) / 2) ** 2))
        assert err < 0.05  # T<=12 affords ~0.02-0.03

    def test_amplitude_matches_choice(self, table6):
        rng = np.random.default_rng(2)
        mats, slots, _ = _slots(table6, [(0, 4)] * 3)
        target = haar_random_u2(rng)
        choice, amp = refine_pairs(target, slots, np.array([1, 2, 3]))
        prod = target.conj().T
        for i, m in enumerate(mats):
            prod = prod @ m[choice[i]]
        assert complex(np.trace(prod)) == pytest.approx(amp, abs=1e-9)


def _all_pair_scores(env, a_mats, b_mats):
    """|Tr(env A B)| for every (A, B): the brute-force pair oracle."""
    ea = np.einsum("ij,sjk->sik", env, a_mats)
    return np.abs(np.einsum("sab,tba->st", ea, b_mats))


def _refine_oracle(target, mats, choice, costs, sweeps=4):
    """Pair sweeps whose every step is the brute-force canonical argmax."""
    choice = np.array(choice, dtype=np.int64)
    udag = target.conj().T
    best_amp = complex(np.trace(
        np.linalg.multi_dot([udag] + [m[c] for m, c in zip(mats, choice)])
    ))
    for _ in range(sweeps):
        improved = False
        for i in range(len(mats) - 1):
            left = np.eye(2, dtype=complex)
            for j in range(i):
                left = left @ mats[j][choice[j]]
            right = np.eye(2, dtype=complex)
            for j in range(i + 2, len(mats)):
                right = right @ mats[j][choice[j]]
            env = right @ udag @ left  # amplitude = Tr(env A B)
            a, b = _canonical_rows(env.conj().T, mats[i:i + 2],
                                   costs[i:i + 2])
            amp = complex(np.trace(env @ mats[i][a] @ mats[i + 1][b]))
            if abs(amp) > abs(best_amp) + 1e-12:
                choice[i], choice[i + 1] = a, b
                best_amp = amp
                improved = True
        if not improved:
            break
    return choice, best_amp


class TestPrunedPairSearch:
    """The pair sweeps and the k-d query against their oracles."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("start", ["random", "runner-up"])
    def test_two_slot_reaches_brute_force_optimum(self, table6, seed, start):
        rng = np.random.default_rng(seed)
        mats, slots, _ = _slots(table6, [(0, 3), (1, 2)])
        target = haar_random_u2(rng)
        scores = _all_pair_scores(target.conj().T, mats[0], mats[1])
        brute = scores.max()
        if start == "random":
            start = rng.integers(0, [len(m) for m in mats])
        else:
            # Start just below the optimum: the search must still reach
            # a winner that beats the start by a hair.
            below = np.where(scores < brute - 1e-9, scores, -1.0)
            start = np.array(np.unravel_index(np.argmax(below), scores.shape))
        choice, amp = refine_pairs(target, slots, start)
        assert abs(amp) == pytest.approx(brute, abs=1e-9)
        prod = target.conj().T @ mats[0][choice[0]] @ mats[1][choice[1]]
        assert complex(np.trace(prod)) == amp

    @pytest.mark.parametrize("n_slots", [2, 3, 4])
    def test_matches_unpruned_reference(self, table6, n_slots, monkeypatch):
        # Every pair step is the brute-force canonical argmax of its
        # environment, and the sweeps end where the oracle's do.
        mats, slots, costs = _slots(table6, [(0, 3)] * n_slots)
        steps = []
        real = meet.best_pair

        def checked(target, pair):
            a, b, amp = real(target, pair)
            assert (a, b) == _canonical_rows(
                target, [s.mats for s in pair], [s.costs for s in pair]
            )
            steps.append((a, b))
            return a, b, amp

        monkeypatch.setattr(meet, "best_pair", checked)
        rng = np.random.default_rng(40 + n_slots)
        for _ in range(6):
            target = haar_random_u2(rng)
            start = rng.integers(0, len(mats[0]), n_slots)
            choice, amp = refine_pairs(target, slots, start)
            ref_choice, ref_amp = _refine_oracle(target, mats, start, costs)
            assert np.array_equal(choice, ref_choice)
            assert amp == pytest.approx(ref_amp, abs=1e-12)
        assert len(steps) >= 6 * (n_slots - 1)

    def test_two_slot_queries_once(self, table6, monkeypatch):
        # The environment of the only pair is U^dag in every sweep, so a
        # second search could never improve on the first.
        mats, slots, _ = _slots(table6, [(0, 4)] * 2)
        calls = []
        real = meet.best_pair

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(meet, "best_pair", counted)
        target = haar_random_u2(np.random.default_rng(3))
        udag = target.conj().T
        amp0 = abs(np.trace(udag @ mats[0][0] @ mats[1][0]))
        _, amp = refine_pairs(target, slots, np.array([0, 0]))
        assert abs(amp) > amp0  # the first sweep improved
        assert len(calls) == 1

    def test_nearest_pads_misses(self, table6):
        mats = table6.mats[table6.indices_for_t_range(0, 2)]
        index = QuaternionIndex(mats)
        got = index.nearest(mats[:5], k=3, distance_upper_bound=1e-6)
        assert got[:, 0].tolist() == list(range(5))
        assert (got[:, 1:] == -1).all()
        assert (index.nearest(mats[:5], k=3) >= 0).all()

    def test_nearest_k1_keeps_candidate_axis(self, table6):
        # Regression: cKDTree.query drops the k axis for k=1.
        mats = table6.mats[table6.indices_for_t_range(0, 2)]
        got = QuaternionIndex(mats).nearest(mats[:5], k=1)
        assert got.shape == (5, 1)
        assert got[:, 0].tolist() == list(range(5))


def _canonical_rows(target, mats, costs):
    """Brute-force canonical argmax: ties within 1e-12, then costs, rows."""
    scores = _all_pair_scores(target.conj().T, mats[0], mats[1])
    a, b = np.nonzero(scores >= scores.max() - 1e-12)
    (t0, c0), (t1, c1) = costs
    pick = np.lexsort((b, a, c0[a] + c1[b], t0[a] + t1[b]))[0]
    return int(a[pick]), int(b[pick])


class TestBestPair:
    """The canonical two-slot search against the brute-force oracle."""

    @pytest.mark.parametrize("ranges", [[(0, 4), (0, 2)], [(0, 2), (0, 4)]])
    def test_rz_ties_beyond_neighbours(self, ranges, monkeypatch):
        # Rz targets of low T count tie on more partners per row than one
        # query fetches; the rows that fill up must ask again.  Only the
        # transversal of slot 0 queries, and with these angles its rows
        # see more than four ties only when slot 1 is the larger slot.
        table = get_table(4)
        mats, slots, costs = _slots(table, ranges)
        ks = []
        orig = QuaternionIndex.nearest

        def recording(self, targets, k=2, **kw):
            ks.append(k)
            return orig(self, targets, k=k, **kw)

        monkeypatch.setattr(QuaternionIndex, "nearest", recording)
        rng = np.random.default_rng(7)
        for theta in rng.uniform(0, 2 * np.pi, 12):
            target = rz(theta)
            a, b, amp = best_pair(target, slots)
            assert (a, b) == _canonical_rows(target, mats, costs)
            prod = target.conj().T @ mats[0][a] @ mats[1][b]
            assert complex(np.trace(prod)) == amp
        if ranges[0] == (0, 2):
            assert max(ks) > 4  # some row asked again

    def test_haar_matches_oracle_both_directions(self, table6):
        rng = np.random.default_rng(8)
        for ranges in ([(0, 6), (1, 3)], [(1, 3), (0, 6)]):
            mats, slots, costs = _slots(table6, ranges)
            for _ in range(4):
                target = haar_random_u2(rng)
                a, b, _ = best_pair(target, slots)
                assert (a, b) == _canonical_rows(target, mats, costs)


def _identity_rooted(table, row):
    """Whether a table row's normal form ends in the identity Clifford."""
    while table.parents[row] >= 0:
        row = table.parents[row]
    return table.prefixes[row] == 0


class TestSlotCosets:
    """The right-Clifford coset map of a slot against exact arithmetic."""

    @pytest.mark.parametrize(
        "lo, hi", [(0, 6), (1, 3), (0, 3), (1, 2), (0, 4)]
    )
    def test_images_are_exact_clifford_products(self, table6, lo, hi):
        from repro.enumeration import vectorized as vec
        from repro.gates.cliffords import cliffords

        rows = table6.indices_for_t_range(lo, hi)
        images = layout_slots(table6, [(lo, hi)])[0].cosets
        assert images.shape == (len(rows) // 24, 24)
        assert 24 * len(images) == len(rows)
        transversal = rows[images[:, 0]]
        assert all(_identity_rooted(table6, r) for r in transversal)
        cliff = np.stack([vec.exact_to_coeffs(c.exact)[0] for c in cliffords()])
        cliff_k = np.array([c.exact.k for c in cliffords()])
        r = np.repeat(transversal, 24)
        c = np.tile(np.arange(24), len(transversal))
        prod, prod_k = vec.matmul(table6.coeffs[r], table6.karr[r],
                                  cliff[c], cliff_k[c])
        found = table6.lookup_batch(prod, prod_k)
        assert np.array_equal(found, rows[images].ravel())

    def test_unclosed_slot_raises(self, table6):
        # Slot 1 keeps every other row, so Clifford images of its best
        # partners go missing.
        first, second = layout_slots(table6, [(0, 3), (0, 3)])
        broken = Slot(second.rows[::2], second.mats[::2],
                      tuple(c[::2] for c in second.costs), second.cosets[:0])
        target = haar_random_u2(np.random.default_rng(9))
        with pytest.raises(RuntimeError, match="not closed"):
            best_pair(target, [first, broken])


class TestWorkflowInternals:
    def test_best_transpile_picks_minimum(self):
        c = Circuit(2)
        c.rx(0.4, 1).cx(0, 1).rz(0.7, 1).cx(0, 1)
        best = best_transpile(c, "u3")
        # Commutation merges the rx into the rz: one rotation.
        assert rotation_count(best) == 1

    def test_trivial_rotations_cost_no_t(self):
        c = Circuit(1)
        c.rz(math.pi / 2, 0)  # = S up to phase
        u3c, rzc, eps_t, eps_g = matched_thresholds(c, 0.01)
        tra = compile_circuit(u3c, "trasyn", eps_t, seed=4,
                              pre_transpiled=True)
        grid = compile_circuit(rzc, "gridsynth", eps_g, seed=4,
                               pre_transpiled=True)
        assert tra.t_count == 0
        assert grid.t_count == 0
        assert tra.n_rotations == 0 and grid.n_rotations == 0

    def test_flow_rejects_wrong_basis(self):
        c = Circuit(1).rx(0.3, 0)
        with pytest.raises(ValueError):
            compile_circuit(c, "trasyn", 0.01, pre_transpiled=True)
        with pytest.raises(ValueError):
            compile_circuit(c, "gridsynth", 0.01, pre_transpiled=True)

    @pytest.mark.slow
    def test_synthesized_gates_in_time_order(self):
        # The spliced sequence must realize the rotation when the
        # circuit is *executed*, i.e. reversal from matrix order is
        # correct: check a single-rotation circuit end to end.
        c = Circuit(1).rz(0.9, 0)
        u3c, _, eps_t, _ = matched_thresholds(c, 0.01)
        tra = compile_circuit(u3c, "trasyn", eps_t, seed=5,
                              pre_transpiled=True)
        d = trace_distance(c.unitary(), tra.circuit.unitary())
        assert d <= eps_t + 1e-9

    def test_total_error_bounds_state_infidelity(self):
        c = Circuit(2).h(0).rz(0.8, 0).cx(0, 1).rx(1.2, 1)
        u3c, _, eps_t, _ = matched_thresholds(c, 0.02)
        tra = compile_circuit(u3c, "trasyn", eps_t, seed=6,
                              pre_transpiled=True)
        psi = c.statevector()
        psi_s = tra.circuit.statevector()
        infid = 1 - abs(np.vdot(psi, psi_s)) ** 2
        bound = tra.total_synthesis_error
        assert infid <= (2 * bound) ** 2 + 1e-9

    @pytest.mark.slow
    def test_t_count_scales_with_eps(self):
        c = Circuit(1).rz(1.2345, 0)
        counts = []
        for eps in (0.05, 0.005):
            u3c, _, eps_t, _ = matched_thresholds(c, eps)
            tra = compile_circuit(u3c, "trasyn", eps_t, seed=7,
                                  pre_transpiled=True)
            counts.append(tra.t_count)
        assert counts[1] > counts[0]
