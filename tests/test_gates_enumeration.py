"""Tests for exact gates, the Clifford group, and step-0 enumeration."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.enumeration import build_table, expected_unique_count, get_table
from repro.enumeration import vectorized as vec
from repro.gates import EXACT_GATES, ExactUnitary, cliffords
from repro.linalg import GATES, trace_value


class TestExactUnitary:
    def test_gates_match_float(self):
        for name, exact in EXACT_GATES.items():
            if name in GATES:
                assert np.allclose(exact.to_matrix(), GATES[name]), name

    def test_all_exact_gates_unitary(self):
        for name, exact in EXACT_GATES.items():
            assert exact.is_unitary(), name

    def test_product_matches_float(self):
        seq = ("H", "T", "S", "H", "T", "X", "T", "H")
        exact = ExactUnitary.from_gates(seq)
        dense = np.eye(2, dtype=complex)
        for g in seq:
            dense = dense @ GATES[g]
        assert np.allclose(exact.to_matrix(), dense)

    def test_canonical_key_phase_invariant(self):
        u = ExactUnitary.from_gates(("H", "T", "H"))
        for j in range(8):
            assert u.scale_phase(j).canonical_key() == u.canonical_key()

    def test_canonical_key_distinguishes(self):
        a = ExactUnitary.from_gates(("H", "T"))
        b = ExactUnitary.from_gates(("T", "H"))
        assert a.canonical_key() != b.canonical_key()

    def test_dagger(self):
        u = ExactUnitary.from_gates(("H", "T", "S"))
        prod = (u.dagger() @ u).reduce()
        assert prod.equals_up_to_phase(ExactUnitary.identity())

    def test_reduce_lowers_k(self):
        u = ExactUnitary.from_gates(("H", "H"))  # identity at k=2
        assert u.k == 0


class TestCliffordGroup:
    def test_exactly_24(self):
        assert len(cliffords()) == 24

    def test_distinct_up_to_phase(self):
        keys = {c.exact.canonical_key() for c in cliffords()}
        assert len(keys) == 24

    def test_all_unitary_and_t_free(self):
        for c in cliffords():
            assert c.exact.is_unitary()
            assert "T" not in c.sequence and "Tdg" not in c.sequence

    def test_sequences_reproduce(self):
        for c in cliffords():
            rebuilt = ExactUnitary.from_gates(c.sequence)
            assert rebuilt.equals_up_to_phase(c.exact)

    def test_pauli_cost_zero(self):
        costs = sorted(c.hs_cost for c in cliffords())
        assert costs[:4] == [0, 0, 0, 0]  # I, X, Y, Z
        assert max(costs) <= 3

    def test_group_closure(self):
        keys = {c.exact.canonical_key() for c in cliffords()}
        cs = cliffords()
        for a in cs[:6]:
            for b in cs[:6]:
                prod = (a.exact @ b.exact).reduce()
                assert prod.canonical_key() in keys


class TestVectorizedArithmetic:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20)
    def test_zmul_matches_scalar(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.integers(-20, 20, size=(5, 4)).astype(np.int64)
        y = rng.integers(-20, 20, size=(5, 4)).astype(np.int64)
        from repro.rings.zomega import ZOmega

        prod = vec.zmul(x, y)
        for i in range(5):
            a = ZOmega(*map(int, x[i]))
            b = ZOmega(*map(int, y[i]))
            c = a * b
            assert tuple(map(int, prod[i])) == (c.a, c.b, c.c, c.d)

    def test_phase_windows_are_omega_powers(self):
        from repro.rings.zomega import OMEGA, ZOmega

        x = np.array([1, -2, 3, 4], dtype=np.int64)
        cycle = np.concatenate([x, -x])
        expected = ZOmega(1, -2, 3, 4)
        for window in vec._PHASE_WINDOWS:
            assert tuple(map(int, cycle[window])) == (
                expected.a, expected.b, expected.c, expected.d,
            )
            expected = expected * OMEGA

    def test_canonical_keys_ignore_global_phase(self):
        from repro.rings.zomega import OMEGA

        words = [("H", "T", "S"), ("T", "H", "T", "H"), ("S", "S", "H")]
        units = [ExactUnitary.from_gates(w).reduce() for w in words]
        for j in range(8):
            rotated = [
                ExactUnitary(*(e * OMEGA**j for e in u.entries()), u.k)
                for u in units
            ]
            coeffs = np.stack([vec.exact_to_coeffs(u)[0] for u in rotated])
            keys = vec.canonical_keys(coeffs, np.array([u.k for u in units]))
            assert keys.dtype == np.dtype("S65")
            if j == 0:
                base = keys
            assert np.array_equal(keys, base)
        assert len(set(base.tolist())) == len(units)

    def test_canonical_keys_bound(self):
        coeffs = np.zeros((1, 2, 2, 4), dtype=np.int64)
        coeffs[0, 1, 0, 2] = -(2**30)
        with pytest.raises(OverflowError):
            vec.canonical_keys(coeffs, np.array([0]))

    def test_matmul_broadcasts_as_entrywise_zmul(self):
        # Large coefficients and a (3, 1) x (5,) broadcast, as build_table
        # multiplies syllables by a level.
        rng = np.random.default_rng(2)
        x = rng.integers(-2**20, 2**20, size=(3, 1, 2, 2, 4))
        y = rng.integers(-2**20, 2**20, size=(5, 2, 2, 4))
        prod, k = vec.matmul(x, np.arange(3)[:, None], y, np.arange(5))
        want = sum(vec.zmul(x[..., :, c, None, :], y[..., None, c, :, :])
                   for c in range(2))
        assert prod.shape == (3, 5, 2, 2, 4)
        assert np.array_equal(prod, want)
        assert np.array_equal(k, np.arange(3)[:, None] + np.arange(5))

    def test_divisible_by_sqrt2_iff_sqrt2_times_is_even(self):
        x = np.random.default_rng(3).integers(-9, 9, size=(200, 2, 2, 4))
        x[:50] = vec.mul_sqrt2(x[:50])  # make a quarter divisible
        even = (vec.mul_sqrt2(x) % 2 == 0).all(axis=(1, 2, 3))
        assert np.array_equal(vec.divisible_by_sqrt2(x), even)
        assert even[:50].all() and not even.all()

    def test_div_mul_sqrt2_roundtrip(self):
        rng = np.random.default_rng(0)
        x = rng.integers(-50, 50, size=(10, 2, 2, 4)).astype(np.int64)
        assert np.array_equal(vec.div_sqrt2(vec.mul_sqrt2(x)), x)

    def test_matmul_matches_exact_product(self):
        rng = np.random.default_rng(1)
        names = list(EXACT_GATES)
        words = [rng.choice(names, size=3) for _ in range(6)]
        x = [ExactUnitary.from_gates(w[:2]) for w in words]
        y = [EXACT_GATES[w[2]] for w in words]
        xc = np.stack([vec.exact_to_coeffs(u)[0] for u in x])
        yc = np.stack([vec.exact_to_coeffs(u)[0] for u in y])
        prod, k = vec.matmul(xc, np.array([u.k for u in x]),
                             yc, np.array([u.k for u in y]))
        prod, k = vec.reduce_batch(prod, k)
        for i in range(len(words)):
            want = (x[i] @ y[i]).reduce()
            assert np.array_equal(prod[i], vec.exact_to_coeffs(want)[0])
            assert k[i] == want.k


# sha256 over build_table(8)'s persisted row arrays as int64 bytes,
# recorded before the index moved to sorted keys: it pins the row order
# (first occurrence in cost order) every stored index relies on.
_B8_ROWS_SHA256 = (
    "52095c5de485c4e0f799d125e007560e2afaf53cea9a7fae476325cb4568a4a2"
)


@pytest.fixture(scope="module")
def table8():
    return build_table(8)


class TestTableIndex:
    def test_row_order_is_pinned(self, table8):
        h = hashlib.sha256()
        for name in ("coeffs", "karr", "t_counts", "hs_costs", "parents",
                     "prefixes"):
            arr = np.ascontiguousarray(getattr(table8, name), dtype=np.int64)
            h.update(arr.tobytes())
        assert h.hexdigest() == _B8_ROWS_SHA256

    def test_keys_are_canonical_and_distinct(self, table8):
        assert table8.keys.dtype == np.dtype("S65")
        assert np.array_equal(
            table8.keys, vec.canonical_keys(table8.coeffs, table8.karr)
        )
        assert len(np.unique(table8.keys)) == len(table8)

    def test_lookup_batch_maps_rows_to_themselves(self, table8):
        rows = table8.lookup_batch(table8.coeffs, table8.karr)
        assert np.array_equal(rows, np.arange(len(table8)))

    def test_t_count_9_products_miss(self, table8):
        # Syllable times T-count-8 row: T count 9 (beyond the table, -1)
        # or 7 (a stored row).  The b9 table tells which.
        table9 = build_table(9)
        level = table8.indices_for_t_range(8, 8)
        found8, found9 = [], []
        for tokens in (("T",), ("H", "T"), ("S", "H", "T")):
            g, gk = vec.exact_to_coeffs(ExactUnitary.from_gates(tokens))
            prod, prod_k = vec.matmul(g, gk, table8.coeffs[level],
                                      table8.karr[level])
            found8.append(table8.lookup_batch(prod, prod_k))
            found9.append(table9.lookup_batch(prod, prod_k))
        found8, found9 = np.concatenate(found8), np.concatenate(found9)
        assert (found9 >= 0).all()
        deeper = table9.t_counts[found9] == 9
        assert deeper.any() and not deeper.all()
        assert np.array_equal(found8, np.where(deeper, -1, found9))


class TestEnumeration:
    @pytest.mark.parametrize("budget", [0, 1, 2, 3, 4, 5, 6])
    def test_count_law(self, budget):
        table = build_table(budget)
        assert len(table) == expected_unique_count(budget)

    def test_level_sizes(self):
        table = build_table(5)
        sizes = table.level_sizes()
        assert sizes[0] == 24
        for t in range(1, 6):
            assert sizes[t] == 24 * 3 * 2 ** (t - 1)

    def test_sequences_reproduce_matrices(self):
        table = build_table(4)
        rng = np.random.default_rng(0)
        for i in rng.choice(len(table), 40, replace=False):
            seq = table.sequence(int(i))
            exact = ExactUnitary.from_gates(seq)
            assert table.lookup(exact) == int(i)
            assert trace_value(exact.to_matrix(), table.mats[i]) == pytest.approx(1.0)

    def test_t_counts_match_sequences(self):
        table = build_table(4)
        for i in range(0, len(table), 37):
            seq = table.sequence(i)
            n_t = sum(1 for g in seq if g in ("T", "Tdg"))
            assert n_t == table.t_counts[i]

    def test_sequence_lengths_match_sequences(self):
        table = build_table(4)
        assert [len(table.sequence(i)) for i in range(len(table))] == (
            table.sequence_lengths.tolist()
        )
        # hs_costs is the H/S/Sdg count of each stored sequence.
        assert all(
            sum(g in ("H", "S", "Sdg") for g in table.sequence(i))
            == table.hs_costs[i]
            for i in range(len(table))
        )

    def test_lookup_batch_matches_lookup(self):
        table = build_table(3)
        words = [("H", "T") * 2, ("T", "H") * 5, ("S", "S", "H"), ("I",)]
        exact = [ExactUnitary.from_gates(w) for w in words]
        # Unreduced inputs: the batch lookup reduces them itself.
        coeffs = np.stack([vec.mul_sqrt2(vec.exact_to_coeffs(u)[0])
                           for u in exact])
        karr = np.array([u.k + 1 for u in exact])
        got = table.lookup_batch(coeffs, karr)
        assert got.tolist() == [
            -1 if (i := table.lookup(u)) is None else i for u in exact
        ]
        assert got[1] == -1  # T count 5 is beyond the budget-3 table
        assert table.lookup_batch(coeffs[:0], karr[:0]).shape == (0,)

    def test_lookup_miss(self):
        table = build_table(2)
        deep = ExactUnitary.from_gates(("H", "T") * 8)
        # A T-count-8 word may or may not reduce into the table; if the
        # lookup hits, the stored equivalent must match up to phase.
        idx = table.lookup(deep)
        if idx is not None:
            assert table.exact(idx).equals_up_to_phase(deep)

    def test_indices_for_t_range(self):
        table = build_table(4)
        idx = table.indices_for_t_range(2, 3)
        assert set(np.unique(table.t_counts[idx])) == {2, 3}

    def test_get_table_memoized(self):
        t1 = get_table(3)
        t2 = get_table(3)
        assert t1 is t2

    def test_float_matrices_unitary(self):
        table = build_table(3)
        prods = np.einsum("nji,njk->nik", table.mats.conj(), table.mats)
        assert np.allclose(prods, np.eye(2)[None], atol=1e-9)
