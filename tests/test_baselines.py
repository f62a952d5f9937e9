"""Tests for the annealing baseline and the meet-in-middle search."""

import numpy as np

from repro.enumeration import get_table
from repro.linalg import haar_random_u2, trace_value
from repro.synthesis.annealing import anneal_unitary
from repro.synthesis.meet import QuaternionIndex, to_quaternions
from repro.synthesis.sequences import (
    GateSequence,
    clifford_count_of,
    matrix_of,
    t_count_of,
)


class TestSequences:
    def test_counts(self):
        gates = ("H", "T", "S", "X", "Tdg", "Sdg")
        assert t_count_of(gates) == 2
        assert clifford_count_of(gates) == 3  # H, S, Sdg (X is Pauli)

    def test_matrix_order(self):
        gates = ("H", "T")
        from repro.linalg import GATES

        assert np.allclose(matrix_of(gates), GATES["H"] @ GATES["T"])

    def test_verify(self):
        seq = GateSequence(("H", "T"), error=0.0)
        assert seq.verify(matrix_of(("H", "T")))
        assert not seq.verify(matrix_of(("T", "H")))

    def test_circuit_order_reverses(self):
        seq = GateSequence(("H", "T"), error=0.0)
        assert seq.circuit_order() == ("T", "H")


class TestQuaternions:
    def test_inner_product_is_half_trace(self):
        rng = np.random.default_rng(0)
        mats = np.stack([haar_random_u2(rng) for _ in range(20)])
        qs = to_quaternions(mats)
        for i in range(0, 20, 3):
            for j in range(1, 20, 5):
                tv = trace_value(mats[i], mats[j])
                assert abs(abs(np.dot(qs[i], qs[j])) - tv) < 1e-9

    def test_nearest_recovers_self(self):
        table = get_table(4)
        index = QuaternionIndex(table.mats[:500])
        targets = table.mats[:10]
        nearest = index.nearest(targets, k=1)
        for i, cand in enumerate(nearest.reshape(-1)):
            assert trace_value(table.mats[i], table.mats[cand]) > 1 - 1e-9


class TestAnnealing:
    def test_loose_threshold_succeeds(self):
        rng = np.random.default_rng(5)
        u = haar_random_u2(rng)
        report = anneal_unitary(u, 0.3, rng=rng, time_limit=5.0)
        assert report.succeeded
        assert report.sequence.error <= 0.3
        assert report.sequence.verify(u)

    def test_tight_threshold_times_out(self):
        rng = np.random.default_rng(6)
        u = haar_random_u2(rng)
        report = anneal_unitary(u, 1e-5, rng=rng, time_limit=0.4)
        assert not report.succeeded
        assert report.sequence is None
        assert report.elapsed >= 0.3

    def test_exact_clifford_target(self):
        from repro.linalg import GATES

        rng = np.random.default_rng(7)
        report = anneal_unitary(GATES["H"], 0.05, rng=rng, time_limit=5.0)
        assert report.succeeded
