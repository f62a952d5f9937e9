"""Tests for Pauli evolution, Hamiltonian models, and the benchmark suite."""

import networkx as nx
import numpy as np
import pytest
from scipy.linalg import expm

from repro.bench_circuits import (
    CATEGORIES,
    benchmark_suite,
    full_suite,
    qaoa_maxcut,
    qft,
    suite_statistics,
)
from repro.bench_circuits.hamiltonians import (
    hamiltonian_circuit,
    heisenberg_terms,
    ising_terms,
    maxcut_terms,
    random_pauli_terms,
    tfim_terms,
    xy_terms,
)
from repro.circuits import rotation_count
from repro.linalg import trace_distance
from repro.paulis import PauliString, evolution_circuit, trotter_circuit


class TestPauliString:
    def test_validation(self):
        with pytest.raises(ValueError):
            PauliString("ABC")
        with pytest.raises(ValueError):
            PauliString("")

    def test_support_and_weight(self):
        p = PauliString("IXZY")
        assert p.support == (1, 2, 3)
        assert p.weight == 3
        assert not p.is_diagonal()
        assert PauliString("IZZI").is_diagonal()

    def test_matrix(self):
        m = PauliString("ZX").matrix()
        assert m.shape == (4, 4)
        assert np.allclose(m @ m, np.eye(4))


class TestEvolution:
    @pytest.mark.parametrize(
        "label", ["Z", "X", "Y", "ZZ", "XY", "IZX", "YYZ", "XIZY"]
    )
    def test_matches_expm(self, label):
        theta = 0.437
        p = PauliString(label)
        u = evolution_circuit(p, theta).unitary()
        exact = expm(-0.5j * theta * p.matrix())
        assert trace_distance(u, exact) < 1e-7

    def test_weight_one_uses_native_rotations(self):
        c = evolution_circuit(PauliString("IXI"), 0.3)
        assert [g.name for g in c.gates] == ["rx"]

    def test_trotter_single_step_matches_product(self):
        terms = [(PauliString("XX"), 0.3), (PauliString("ZI"), -0.2)]
        c = trotter_circuit(terms, time=0.7, steps=1, order_terms=False)
        exact = np.eye(4, dtype=complex)
        for p, coeff in terms:
            exact = expm(-1j * 0.7 * coeff * p.matrix()) @ exact
        assert trace_distance(c.unitary(), exact) < 1e-7

    def test_trotter_empty_raises(self):
        with pytest.raises(ValueError):
            trotter_circuit([])


class TestGreedyOrder:
    """Term orders pinned as indices into the input list; ties go to
    the earliest remaining term."""

    CASES = {
        "tfim_5": (
            lambda: tfim_terms(5), [0, 1, 2, 3, 7, 4, 5, 6, 8],
        ),
        "heisenberg_4": (
            lambda: heisenberg_terms(4),
            [0, 1, 2, 5, 3, 4, 7, 6, 8, 11, 9, 10, 12],
        ),
        "xy_5": (
            lambda: xy_terms(5), [0, 1, 3, 2, 4, 5, 7, 6, 11, 8, 9, 10, 12],
        ),
        "ising_5": (
            lambda: ising_terms(5, np.random.default_rng(4)),
            [0, 1, 2, 3, 7, 4, 5, 6, 8],
        ),
        "maxcut_8": (
            lambda: maxcut_terms(nx.random_regular_graph(3, 8, seed=2), 8),
            [0, 1, 2, 4, 3, 5, 8, 9, 6, 7, 10, 11],
        ),
        "random_pauli_6": (
            lambda: random_pauli_terms(6, 18, np.random.default_rng(3)),
            [0, 6, 15, 16, 11, 2, 9, 10, 5, 3, 13, 4, 7, 1, 8, 12, 14, 17],
        ),
        "random_pauli_8": (
            lambda: random_pauli_terms(8, 24, np.random.default_rng(11)),
            [0, 7, 9, 22, 2, 6, 21, 13, 15, 12, 23, 20, 3, 5, 17, 19, 8,
             14, 1, 4, 10, 11, 16, 18],
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_pinned(self, name):
        from repro.paulis.evolution import _greedy_order

        make, want = self.CASES[name]
        terms = make()
        got = _greedy_order(terms)
        assert [next(i for i, t in enumerate(terms) if t is g) for g in got] == want

    def test_empty(self):
        from repro.paulis.evolution import _greedy_order

        assert _greedy_order([]) == []


class TestHamiltonians:
    def test_tfim_structure(self):
        terms = tfim_terms(5)
        assert len(terms) == 4 + 5
        assert all(t[0].n_qubits == 5 for t in terms)

    def test_heisenberg_has_field(self):
        terms = heisenberg_terms(4)
        weights = {t[0].weight for t in terms}
        assert weights == {1, 2}

    def test_ising_is_diagonal(self):
        rng = np.random.default_rng(0)
        assert all(t[0].is_diagonal() for t in ising_terms(5, rng))

    @pytest.mark.parametrize(
        "kind", ["tfim", "heisenberg", "xy", "random_pauli", "ising", "maxcut"]
    )
    def test_circuits_build(self, kind):
        rng = np.random.default_rng(1)
        c = hamiltonian_circuit(kind, 6, rng)
        assert c.n_qubits == 6
        assert rotation_count(c) > 0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            hamiltonian_circuit("bogus", 4, np.random.default_rng(0))


class TestSuite:
    def test_full_suite_has_187(self):
        assert len(full_suite()) == 187

    def test_deterministic(self):
        a = full_suite()
        b = full_suite()
        assert [c.name for c in a] == [c.name for c in b]
        assert [len(c.circuit) for c in a] == [len(c.circuit) for c in b]

    def test_all_categories_present(self):
        stats = suite_statistics(full_suite())
        assert set(stats) == set(CATEGORIES)

    def test_no_trivial_circuits(self):
        assert all(c.n_rotations > 0 for c in full_suite())

    def test_limit_is_stratified(self):
        subset = benchmark_suite(limit=8)
        assert len(subset) == 8
        assert len({c.category for c in subset}) == 4

    def test_max_qubits_filter(self):
        subset = benchmark_suite(max_qubits=6)
        assert all(c.n_qubits <= 6 for c in subset)

    def test_category_filter(self):
        subset = benchmark_suite(categories=("qaoa",))
        assert all(c.category == "qaoa" for c in subset)
        assert len(subset) == 40


class TestQAOAConstruction:
    def test_qaoa_merge_friendliness(self):
        # The DFS-oriented edge ordering must let the U3 IR merge nearly
        # all mixer rotations for p >= 2 (the paper's 40% reduction).
        from repro.transpiler import transpile

        rng = np.random.default_rng(5)
        c = qaoa_maxcut(10, 3, rng)
        u3_rot = rotation_count(
            transpile(c, basis="u3", optimization_level=2, commutation=True)
        )
        rz_rot = rotation_count(
            transpile(c, basis="rz", optimization_level=2, commutation=False)
        )
        assert rz_rot / u3_rot > 1.2

    def test_qft_builds(self):
        c = qft(5)
        assert c.n_qubits == 5
        assert rotation_count(c) > 0
