"""Tests for the gridsynth stack: grid problems, Diophantine, exact synthesis."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.enumeration import get_table
from repro.gates.exact import EXACT_GATES, ExactUnitary
from repro.linalg import haar_random_u2, rz, trace_distance
from repro.rings.zomega import ZOmega
from repro.rings.zsqrt2 import LAMBDA, LAMBDA_INV, ZSqrt2
import repro.synthesis.gridsynth.rz_approx as rz_approx
from repro.synthesis.gridsynth import (
    ExactSynthesisError,
    GridsynthArgumentError,
    exact_synthesize,
    gridsynth_rz,
    gridsynth_u3,
)
from repro.synthesis.gridsynth.diophantine import solve_norm_equation
from repro.synthesis.gridsynth.exact_synthesis import (
    _div_sqrt2,
    _is_unitary,
    _mul,
    _phase_key,
    _reduce,
    _word_matrix,
    t_power_tokens,
)
from repro.synthesis.gridsynth.grid_problem import (
    Candidate,
    _halfplane_y_interval,
    enumerate_candidates,
    solve_1d_grid,
)
from repro.synthesis.gridsynth.number_theory import (
    factorize,
    is_probable_prime,
    sqrt_mod_prime,
)
from repro.synthesis.sequences import t_count_of


class TestNumberTheory:
    def test_small_primes(self):
        primes = [p for p in range(2, 100) if is_probable_prime(p)]
        assert primes[:10] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        assert len(primes) == 25

    def test_large_prime(self):
        assert is_probable_prime(2**61 - 1)
        assert not is_probable_prime(2**67 - 1)  # 193707721 * 761838257287

    @given(st.integers(min_value=2, max_value=10**9))
    @settings(max_examples=50)
    def test_factorize_reconstructs(self, n):
        f = factorize(n)
        assert f is not None
        prod = 1
        for p, e in f.items():
            assert is_probable_prime(p)
            prod *= p**e
        assert prod == n

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=50)
    def test_sqrt_mod_prime(self, a):
        p = 1_000_003
        r = sqrt_mod_prime(a, p)
        if r is not None:
            assert r * r % p == a % p
        else:
            assert pow(a % p, (p - 1) // 2, p) == p - 1


_SQRT2 = math.sqrt(2.0)
_TOL = 1e-9


def _solve_1d_grid_reference(ix, jy):
    """The object-based 1D scan ``solve_1d_grid`` must reproduce in order."""
    x0, x1 = ix
    y0, y1 = jy
    if x1 < x0 or y1 < y0:
        return []
    len_i = max(x1 - x0, 1e-300)
    len_j = max(y1 - y0, 1e-300)
    m = int(round(math.log(math.sqrt(len_j / len_i)) / math.log(1.0 + _SQRT2)))
    m = max(-200, min(200, m))
    lam_m = (1.0 + _SQRT2) ** m
    lam_conj_m = (1.0 - _SQRT2) ** m
    sx0, sx1 = x0 * lam_m, x1 * lam_m
    sy0, sy1 = y0 * lam_conj_m, y1 * lam_conj_m
    if sy1 < sy0:
        sy0, sy1 = sy1, sy0
    unscale = LAMBDA_INV**m if m >= 0 else LAMBDA ** (-m)
    out = []
    q_lo = math.ceil((sx0 - sy1) / (2 * _SQRT2) - _TOL)
    q_hi = math.floor((sx1 - sy0) / (2 * _SQRT2) + _TOL)
    for q in range(q_lo, q_hi + 1):
        p_lo = math.ceil(max(sx0 - q * _SQRT2, sy0 + q * _SQRT2) - _TOL)
        p_hi = math.floor(min(sx1 - q * _SQRT2, sy1 + q * _SQRT2) + _TOL)
        for p in range(p_lo, p_hi + 1):
            cand = ZSqrt2(p, q) * unscale
            f = float(cand)
            fc = float(cand.conj())
            if x0 - _TOL <= f <= x1 + _TOL and y0 - _TOL <= fc <= y1 + _TOL:
                out.append(cand)
    return out


def _enumerate_candidates_reference(theta, eps, k):
    """Object-based candidate enumeration: ``ZSqrt2``/``ZOmega`` per point."""
    cos_half = math.cos(theta / 2.0)
    sin_half = math.sin(theta / 2.0)
    bound = 1.0 - eps * eps / 2.0
    scale = _SQRT2**k
    x0 = max(-1.0, cos_half - eps)
    x1 = min(1.0, cos_half + eps)
    found = []
    for e_parity in (0, 1):
        off = 0.0 if e_parity == 0 else 1.0 / _SQRT2
        vs = _solve_1d_grid_reference(
            (x0 * scale - off, x1 * scale - off), (-scale + off, scale + off))
        for v in vs:
            v_val, v_conj = float(v) + off, float(v.conj()) - off
            x = v_val / scale
            ybounds = _halfplane_y_interval(x, cos_half, sin_half, bound)
            if ybounds is None:
                continue
            rem = scale * scale - v_conj * v_conj
            if rem < 0.0:
                continue
            wlim = math.sqrt(rem)
            ws = _solve_1d_grid_reference(
                (ybounds[0] * scale - off, ybounds[1] * scale - off),
                (-wlim + off, wlim + off))
            for w in ws:
                e = 2 * v.b + e_parity
                f = 2 * w.b + e_parity
                zu = ZOmega((f - e) // 2, w.a, (f + e) // 2, v.a)
                if k > 0 and zu.is_divisible_by_sqrt2():
                    continue
                y = (float(w) + off) / scale
                quality = x * cos_half - y * sin_half
                if quality < bound - _TOL:
                    continue
                if x * x + y * y > 1.0 + _TOL:
                    continue
                found.append(Candidate(zu=zu, k=k, quality=quality))
    found.sort(key=lambda c: -c.quality)
    return found


def _k_cap(eps):
    """A level k <= 30 with a few hundred candidates (the count grows ~4^k)."""
    return min(30, 10 + round(5 * math.log10(0.1 / eps)))


class TestGridProblem:
    @given(
        st.floats(-10, 10), st.floats(0.1, 8), st.floats(-10, 10), st.floats(0.1, 8)
    )
    @settings(max_examples=25, deadline=None)
    def test_1d_matches_brute_force(self, x0, lx, y0, ly):
        x1, y1 = x0 + lx, y0 + ly
        grid = solve_1d_grid((x0, x1), (y0, y1))
        assert grid == _solve_1d_grid_reference((x0, x1), (y0, y1))
        sols = {(s.a, s.b) for s in grid}
        s2 = math.sqrt(2)
        span = int(max(abs(x0), abs(x1), abs(y0), abs(y1))) + 12
        brute = set()
        for p in range(-span, span + 1):
            for q in range(-span, span + 1):
                if x0 <= p + q * s2 <= x1 and y0 <= p - q * s2 <= y1:
                    brute.add((p, q))
        # Tolerance may add boundary points; it must never lose interior ones.
        assert brute <= sols

    def test_candidates_live_in_region(self):
        theta, eps = 1.234, 0.05
        z = complex(math.cos(theta / 2), -math.sin(theta / 2))
        for k in range(12):
            for cand in enumerate_candidates(theta, eps, k):
                u = complex(cand.zu) / math.sqrt(2) ** k
                assert abs(u) <= 1 + 1e-6
                assert (z.conjugate() * u).real >= 1 - eps**2 / 2 - 1e-6
                uc = complex(cand.zu.adj2()) / (-math.sqrt(2)) ** k
                assert abs(uc) <= 1 + 1e-6

    def test_no_reducible_candidates(self):
        for k in range(2, 12):
            for cand in enumerate_candidates(0.9, 0.1, k):
                assert not cand.zu.is_divisible_by_sqrt2()

    @given(
        st.one_of(st.floats(-4 * math.pi, 4 * math.pi),
                  st.integers(-16, 16).map(lambda j: j * math.pi / 4)),
        st.floats(1e-6, 0.1),
        st.integers(0, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_candidates_match_reference(self, theta, eps, drop):
        k = max(0, _k_cap(eps) - drop)
        got = [(c.zu, c.k, c.quality) for c in enumerate_candidates(theta, eps, k)]
        want = [(c.zu, c.k, c.quality)
                for c in _enumerate_candidates_reference(theta, eps, k)]
        assert got == want

    @pytest.mark.parametrize("theta", [0.0, math.pi / 2, math.pi])
    def test_tied_candidates_keep_reference_order(self, theta):
        # On these axes whole rows of points share a quality.
        got = list(enumerate_candidates(theta, 0.1, 10))
        qualities = [c.quality for c in got]
        assert len(set(qualities)) < len(qualities)
        assert got == _enumerate_candidates_reference(theta, 0.1, 10)


class TestDiophantine:
    def test_zero(self):
        assert solve_norm_equation(ZSqrt2(0, 0)) == ZOmega(0, 0, 0, 0)

    def test_rejects_negative(self):
        assert solve_norm_equation(ZSqrt2(-3, 0)) is None
        assert solve_norm_equation(ZSqrt2(1, 1)) is None  # conj negative

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_solutions_verify(self, seed):
        rng = np.random.default_rng(seed)
        t = ZOmega(*[int(x) for x in rng.integers(-12, 13, size=4)])
        xi = (t.conj() * t).to_zsqrt2()
        sol = solve_norm_equation(xi)
        assert sol is not None  # xi is a norm by construction
        assert (sol.conj() * sol).to_zsqrt2() == xi

    def test_unsolvable_odd_power_over_7_mod_8(self):
        # 3 + sqrt(2) is a prime over p = 7 (7 mod 8, no Gaussian or
        # sqrt(-2) splitting) to an odd power: not a norm.
        assert solve_norm_equation(ZSqrt2(3, 1)) is None

    def test_solvable_five_mod_8(self):
        # 5 = (2+i)(2-i) in Z[i] subset Z[omega]: solvable despite being
        # inert in Z[sqrt2].
        sol = solve_norm_equation(ZSqrt2(5, 0))
        assert sol is not None
        assert (sol.conj() * sol).to_zsqrt2() == ZSqrt2(5, 0)

    def test_two(self):
        sol = solve_norm_equation(ZSqrt2(2, 0))
        assert sol is not None
        assert (sol.conj() * sol).to_zsqrt2() == ZSqrt2(2, 0)


class TestExactSynthesis:
    @pytest.mark.parametrize("budget", [3, 5])
    def test_roundtrip_table(self, budget):
        table = get_table(budget)
        rng = np.random.default_rng(0)
        for i in rng.choice(len(table), 60, replace=False):
            u = table.exact(int(i))
            tokens = exact_synthesize(u)
            assert ExactUnitary.from_gates(tokens).equals_up_to_phase(u)
            # Enumerated sequences are T-optimal; synthesis must match.
            assert t_count_of(tokens) == table.t_counts[i]

    def test_identity(self):
        assert exact_synthesize(ExactUnitary.identity()) == []

    def test_monomial_phases(self):
        for name in ("T", "S", "Z", "X"):
            u = ExactUnitary.from_gate(name)
            tokens = exact_synthesize(u)
            assert ExactUnitary.from_gates(tokens).equals_up_to_phase(u)

    def test_rejects_non_unitary(self):
        bad = ExactUnitary(
            ZOmega(0, 0, 0, 2), ZOmega(0, 0, 0, 0),
            ZOmega(0, 0, 0, 0), ZOmega(0, 0, 0, 1), 0,
        )
        with pytest.raises(ExactSynthesisError):
            exact_synthesize(bad)


_H = EXACT_GATES["H"]
_TDG_POWERS = []
_t = ExactUnitary.identity()
for _ in range(8):
    _TDG_POWERS.append(_t)
    _t = (_t @ EXACT_GATES["Tdg"]).reduce()
del _t


def _omega_exponent_reference(z):
    for j in range(8):
        if z == ZOmega.omega_power(j):
            return j
    return None


def _monomial_tokens_reference(u):
    """Tokens for an sde-0 unitary (always a phase-monomial matrix)."""
    if not u.z00.is_zero():
        i = _omega_exponent_reference(u.z00)
        j = _omega_exponent_reference(u.z11)
        if i is None or j is None or not u.z01.is_zero() or not u.z10.is_zero():
            raise ExactSynthesisError("sde-0 matrix is not monomial")
        return t_power_tokens(j - i)
    i = _omega_exponent_reference(u.z01)
    j = _omega_exponent_reference(u.z10)
    if i is None or j is None or not u.z00.is_zero() or not u.z11.is_zero():
        raise ExactSynthesisError("sde-0 matrix is not monomial")
    return ["X"] + t_power_tokens(i - j)


def _exact_synthesize_reference(u, max_steps=None):
    """Full-matrix sde search that ``exact_synthesize`` must reproduce.

    Forms all eight syllable products at every step and keys every
    visited matrix up front.
    """
    u = u.reduce()
    if not u.is_unitary():
        raise ExactSynthesisError("input matrix is not unitary")
    if max_steps is None:
        max_steps = 8 * u.k + 64

    tokens = []
    visited = set()
    current = u
    steps = 0
    while current.k > 0:
        if steps > max_steps:
            raise ExactSynthesisError("sde reduction did not terminate")
        steps += 1
        visited.add(current.canonical_key())
        best_m = None
        best_next = None
        for m in range(8):
            cand = (_H @ _TDG_POWERS[m] @ current).reduce()
            if cand.k >= current.k + 1:
                continue
            if cand.k == current.k and cand.canonical_key() in visited:
                continue
            if best_next is None or cand.k < best_next.k:
                best_m, best_next = m, cand
        if best_next is None:
            raise ExactSynthesisError("stuck: no syllable reduces the sde")
        tokens.extend(t_power_tokens(best_m))
        tokens.append("H")
        current = best_next
    tokens.extend(_monomial_tokens_reference(current))

    produced = ExactUnitary.from_gates(tokens) if tokens else ExactUnitary.identity()
    if not produced.equals_up_to_phase(u):
        raise ExactSynthesisError("verification failed")
    return tokens


def _canonical_key_reference(u):
    """Smallest coefficient tuple over the eight phases, by multiplication."""
    r = u.reduce()
    flats = []
    for j in range(8):
        v = r.scale_phase(j)
        flats.append(tuple(x for e in v.entries() for x in (e.a, e.b, e.c, e.d)))
    return (r.k,) + min(flats)


_WORD_GATES = ("H", "T", "Tdg", "S", "Sdg", "X", "Z")


def _coeffs(z):
    return (z.a, z.b, z.c, z.d)


class TestIntKernel:
    """The int-tuple Z[omega] kernel agrees with the ``ZOmega`` objects."""

    @given(st.lists(st.sampled_from(_WORD_GATES), max_size=60),
           st.lists(st.sampled_from(_WORD_GATES), max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_ring_ops_on_word_entries(self, word_a, word_b):
        ents = (ExactUnitary.from_gates(word_a).entries()
                + ExactUnitary.from_gates(word_b).entries())
        for x in ents:
            for y in ents:
                assert _mul(_coeffs(x), _coeffs(y)) == _coeffs(x * y)
            doubled = x.mul_sqrt2()
            assert _div_sqrt2(_coeffs(doubled)) == _coeffs(doubled.div_sqrt2())
            if x.is_divisible_by_sqrt2():
                assert _div_sqrt2(_coeffs(x)) == _coeffs(x.div_sqrt2())

    @given(st.lists(st.sampled_from(_WORD_GATES), max_size=120),
           st.integers(0, 7), st.integers(0, 3))
    @settings(max_examples=100, deadline=None)
    def test_phase_key_and_unitarity(self, word, phase, extra_k):
        u = ExactUnitary.from_gates(word).scale_phase(phase)
        # Unreduced input: extra sqrt(2) factors on numerators and k.
        ents = [e for e in u.entries()]
        for _ in range(extra_k):
            ents = [e.mul_sqrt2() for e in ents]
        wide = ExactUnitary(*ents, u.k + extra_k)
        z, k = _reduce(tuple(map(_coeffs, wide.entries())), wide.k)
        assert (z, k) == (tuple(map(_coeffs, u.reduce().entries())), u.reduce().k)
        assert _phase_key(z, k) == wide.canonical_key()
        assert _is_unitary(z, k)
        # Doubling a column scales its norm by 4.
        bad = (z[0], tuple(2 * c for c in z[1]), z[2], tuple(2 * c for c in z[3]))
        assert not _is_unitary(bad, k)
        assert not ExactUnitary(*(ZOmega(*e) for e in bad), k).is_unitary()

    @given(st.lists(st.sampled_from(("H", "T", "S", "Z", "X")), max_size=120))
    @settings(max_examples=100, deadline=None)
    def test_word_matrix_is_the_token_product(self, word):
        z, k = _word_matrix(word)
        ref = ExactUnitary.from_gates(word)
        assert (z, k) == (tuple(map(_coeffs, ref.entries())), ref.k)


class TestExactSynthesisMatchesReference:
    """Column-sde synthesis emits the full-matrix search's exact tokens."""

    @given(st.lists(st.sampled_from(_WORD_GATES), max_size=120))
    @settings(max_examples=150, deadline=None)
    def test_random_words(self, word):
        u = ExactUnitary.from_gates(word)
        assert u.canonical_key() == _canonical_key_reference(u)
        assert exact_synthesize(u) == _exact_synthesize_reference(u)

    @pytest.mark.parametrize("eps", [1e-2, 1e-4])
    def test_every_gridsynth_candidate(self, monkeypatch, eps):
        seen = []

        def checked(u):
            tokens = exact_synthesize(u)
            assert tokens == _exact_synthesize_reference(u)
            seen.append(u)
            return tokens

        monkeypatch.setattr(rz_approx, "exact_synthesize", checked)
        rng = np.random.default_rng(77)
        for _ in range(6):
            gridsynth_rz(float(rng.uniform(0, 4 * math.pi)), eps)
        assert len(seen) >= 6

    def test_max_steps_still_bounds_the_walk(self):
        u = ExactUnitary.from_gates(["H", "T"] * 20)
        with pytest.raises(ExactSynthesisError, match="did not terminate"):
            exact_synthesize(u, max_steps=3)


def _syllables(*ms):
    """Exact phase key of the product H T^-m_1 . H T^-m_2 . ... (matrix order)."""
    return _phase_key(*_word_matrix(
        [g for m in ms for g in ["H", *t_power_tokens(-m)]]))


class TestStallSyllableRelations:
    """The relations that let a stall walk skip keys at levels 1 and 2."""

    IDENTITY = _phase_key(*_word_matrix([]))

    def test_no_syllable_is_a_scalar(self):
        assert all(_syllables(m) != self.IDENTITY for m in range(8))

    def test_two_syllables_are_a_scalar_only_for_zero_zero(self):
        scalar = [(a, b) for a in range(8) for b in range(8)
                  if _syllables(a, b) == self.IDENTITY]
        assert scalar == [(0, 0)]

    def test_three_cycles_exist(self):
        # Why a walk of three or more matrices is still keyed.
        assert _syllables(2, 2, 2) == self.IDENTITY
        assert _syllables(6, 6, 6) == self.IDENTITY


def _digest(seqs):
    h = hashlib.sha256()
    for s in seqs:
        h.update((" ".join(s.gates) + "|" + f"{s.error:.10e}" + "\n").encode())
    return h.hexdigest()


class TestGridsynthDigests:
    """Pinned words of seeded targets; exact synthesis rewrites must not move them."""

    PINNED = {
        2e-2: ("e879acf597158606fbca5e821c4fd518bcd09b9775b555eb9aa3af2efd2fbdea",
               "f9f2a7efd6825ad0d7dbeb510063803efdb2f10ebd45696d37ffd4776a66ed6a"),
        1e-3: ("fef05a37864cb0d5f7153ef0d12602b0105e2a04069cc04bd6e1a022e6b81cbb",
               "d82649de93cd4a74bd63ecf40e140bfb752f1522404cccccf26137ec6b1d840e"),
        1e-5: ("186b9b1309acaf0031c2c28f3492c8dc23c38ee7fc230d93e9be4b5a1543ca32",
               "be06b68182f8615cb4122cb30287f3d20a8b5ccadf9c4c20f7c1c4269078eb31"),
    }

    @pytest.mark.parametrize("eps", sorted(PINNED, reverse=True))
    def test_rz_and_u3_digests(self, eps):
        rng = np.random.default_rng(2024)
        thetas = [float(rng.uniform(0, 4 * math.pi)) for _ in range(4)]
        targets = [haar_random_u2(rng) for _ in range(3)]
        rz_digest = _digest([gridsynth_rz(t, eps) for t in thetas])
        u3_digest = _digest([gridsynth_u3(u, eps) for u in targets])
        assert (rz_digest, u3_digest) == self.PINNED[eps]


class TestGridsynthRz:
    @pytest.mark.parametrize("eps", [0.1, 0.01, 0.001])
    def test_meets_threshold(self, eps):
        rng = np.random.default_rng(5)
        for _ in range(3):
            theta = float(rng.uniform(0, 2 * math.pi))
            seq = gridsynth_rz(theta, eps)
            assert seq.error <= eps + 1e-12
            assert trace_distance(rz(theta), seq.matrix()) <= eps + 1e-9

    def test_t_count_scaling(self):
        # T count tracks 3 log2(1/eps) within a generous constant.
        rng = np.random.default_rng(6)
        for eps in (0.1, 0.01, 0.001):
            ts = []
            for _ in range(3):
                theta = float(rng.uniform(0.3, 6.0))
                ts.append(gridsynth_rz(theta, eps).t_count)
            bound = 3 * math.log2(1 / eps)
            assert np.mean(ts) <= bound + 12
            assert np.mean(ts) >= bound - 12

    def test_trivial_angles_are_free(self):
        for j in range(8):
            seq = gridsynth_rz(j * math.pi / 4, 0.01)
            assert seq.t_count <= 1
            assert seq.error < 1e-9

    def test_near_trivial_snaps(self):
        seq = gridsynth_rz(math.pi / 4 + 1e-4, 0.01)
        assert seq.t_count <= 1

    def test_invalid_eps(self):
        with pytest.raises(ValueError):
            gridsynth_rz(0.5, 0.0)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_theta(self, theta):
        with pytest.raises(GridsynthArgumentError, match="theta"):
            gridsynth_rz(theta, 1e-2)

    @pytest.mark.parametrize(
        "name,value",
        [
            ("candidate_limit", 0),  # used to climb every k level unbounded
            ("candidate_limit", -3),
            ("candidate_limit", 2.0),
            ("max_k", 2.5),  # used to raise a bare TypeError
            ("max_k", -1),  # used to report a search that never ran
            ("max_k", True),
            ("factor_steps", 0),
            ("factor_steps", False),
            ("factor_steps", "50"),
        ],
    )
    def test_rejects_bad_search_arguments(self, name, value):
        with pytest.raises(GridsynthArgumentError, match=name):
            gridsynth_rz(0.3, 0.01, **{name: value})
        # Trivial angles return before the search, but not before the check.
        with pytest.raises(GridsynthArgumentError, match=name):
            gridsynth_rz(0.0, 0.01, **{name: value})
        with pytest.raises(GridsynthArgumentError, match=name):
            gridsynth_u3(haar_random_u2(np.random.default_rng(3)), 0.01,
                         **{name: value})

    def test_accepts_numpy_integer_search_arguments(self):
        plain = gridsynth_rz(0.3, 0.01, max_k=20, candidate_limit=8)
        numpy = gridsynth_rz(0.3, 0.01, max_k=np.int64(20),
                             candidate_limit=np.int32(8))
        assert plain == numpy


class TestGridsynthU3:
    def test_threshold_and_structure(self):
        rng = np.random.default_rng(7)
        u = haar_random_u2(rng)
        seq = gridsynth_u3(u, 0.01)
        assert seq.error <= 0.01
        # Three Rz blocks joined by two H gates: at least 2 H present.
        assert seq.gates.count("H") >= 2

    def test_triple_overhead_vs_single_rz(self):
        # The paper's headline: U3 via gridsynth costs about 3 Rz calls.
        rng = np.random.default_rng(8)
        u = haar_random_u2(rng)
        u3_t = gridsynth_u3(u, 0.01).t_count
        rz_t = gridsynth_rz(1.1, 0.01 / 3).t_count
        assert u3_t >= 2 * rz_t

    @pytest.mark.parametrize(
        "target",
        [
            2 * np.eye(2),
            np.array([[1, 1], [0, 1]]),
            np.array([[np.nan, 0], [0, 1]]),
            np.array([[np.inf, 0], [0, 1]]),
            np.eye(3),
        ],
    )
    def test_rejects_invalid_target(self, target):
        with pytest.raises(GridsynthArgumentError, match="u3_target"):
            gridsynth_u3(target, 1e-2)
