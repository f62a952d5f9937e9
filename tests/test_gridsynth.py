"""Tests for the gridsynth stack: grid problems, Diophantine, exact synthesis."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.enumeration import get_table
from repro.gates.exact import ExactUnitary
from repro.linalg import haar_random_u2, rz, trace_distance
from repro.rings.zomega import ZOmega
from repro.rings.zsqrt2 import ZSqrt2
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
    _H,
    _TDG_POWERS,
    _monomial_tokens,
    t_power_tokens,
)
from repro.synthesis.gridsynth.grid_problem import enumerate_candidates, solve_1d_grid
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


class TestGridProblem:
    @given(
        st.floats(-10, 10), st.floats(0.1, 8), st.floats(-10, 10), st.floats(0.1, 8)
    )
    @settings(max_examples=25, deadline=None)
    def test_1d_matches_brute_force(self, x0, lx, y0, ly):
        x1, y1 = x0 + lx, y0 + ly
        sols = {(s.a, s.b) for s in solve_1d_grid((x0, x1), (y0, y1))}
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
    tokens.extend(_monomial_tokens(current))

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
