"""Tests for simulators, noise, fidelities, and the optimizers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import Circuit, t_count
from repro.linalg import rz, trace_distance, trace_value
from repro.optimizers import fold_phases, kak_decompose, resynthesize
from repro.sim import (
    DensityMatrixBackend,
    NoiseModel,
    depolarizing_kraus,
    process_fidelity_1q,
    sequence_process_infidelity,
    state_fidelity,
)
from repro.sim.fidelity import choi_of_sequence
from repro.synthesis.sequences import matrix_of


class TestNoise:
    def test_kraus_complete(self):
        for p in (0.0, 0.3, 1.0):
            total = sum(k.conj().T @ k for k in depolarizing_kraus(p))
            assert np.allclose(total, np.eye(2))

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            depolarizing_kraus(1.5)

    def test_noise_model_predicates(self):
        from repro.circuits.circuit import Gate

        m = NoiseModel.t_gates_only(1e-3)
        assert m.noisy_qubits(Gate("t", (0,))) == (0,)
        assert m.noisy_qubits(Gate("h", (0,))) == ()
        m2 = NoiseModel.non_pauli_gates(1e-3)
        assert m2.noisy_qubits(Gate("h", (0,))) == (0,)
        assert m2.noisy_qubits(Gate("x", (0,))) == ()
        assert m2.noisy_qubits(Gate("cx", (0, 1))) == (0, 1)


def _rho(circuit, noise=None):
    return DensityMatrixBackend().run(circuit, noise).rho


class TestDensityMatrix:
    def test_noiseless_matches_statevector(self):
        c = Circuit(3).h(0).cx(0, 1).t(1).cx(1, 2).rz(0.3, 2)
        rho = _rho(c)
        psi = c.statevector()
        assert np.allclose(rho, np.outer(psi, psi.conj()), atol=1e-9)

    def test_trace_preserved_under_noise(self):
        c = Circuit(2).h(0).t(0).cx(0, 1).t(1)
        rho = _rho(c, NoiseModel.non_pauli_gates(0.05))
        assert np.trace(rho).real == pytest.approx(1.0)

    def test_full_depolarizing(self):
        c = Circuit(1).t(0)
        rho = _rho(c, NoiseModel.t_gates_only(1.0))
        # One fully-depolarizing event leaves 1/3 mixture of X,Y,Z rho.
        assert np.trace(rho).real == pytest.approx(1.0)

    def test_qubit_guard(self):
        with pytest.raises(ValueError, match="13 qubits"):
            DensityMatrixBackend().run(Circuit(13).h(0))

    def test_noise_reduces_fidelity_monotonically(self):
        c = Circuit(2).h(0).cx(0, 1)
        for _ in range(4):
            c.t(0).t(1)
        psi = c.statevector()
        fids = [
            state_fidelity(_rho(c, NoiseModel.t_gates_only(p)), psi)
            for p in (0.0, 1e-3, 1e-2, 1e-1)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(fids, fids[1:]))
        assert fids[0] == pytest.approx(1.0)


class TestProcessFidelity:
    def test_identity_channel(self):
        choi = choi_of_sequence([])
        assert process_fidelity_1q(choi, np.eye(2)) == pytest.approx(1.0)

    def test_unitary_channel_equals_trace_value_squared(self):
        seq = ("H", "T", "S", "H", "T")
        target = rz(0.37)
        choi = choi_of_sequence(seq)
        f = process_fidelity_1q(choi, target)
        assert f == pytest.approx(trace_value(target, matrix_of(seq)) ** 2)

    def test_infidelity_scales_with_rate(self):
        seq = ("T", "H", "T", "H", "T")
        target = matrix_of(seq)
        infs = [
            sequence_process_infidelity(seq, target, r)
            for r in (1e-4, 1e-3, 1e-2)
        ]
        assert infs[0] < infs[1] < infs[2]
        # Roughly linear in rate for small rates with 3 T gates.
        assert infs[1] / infs[0] == pytest.approx(10.0, rel=0.05)


class TestPhaseFolding:
    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_unitary_preserved(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 4))
        c = Circuit(n)
        names = ["h", "s", "sdg", "t", "tdg", "x", "z"]
        for _ in range(35):
            r = rng.random()
            if r < 0.6:
                c.append(names[int(rng.integers(len(names)))], int(rng.integers(n)))
            elif r < 0.9:
                a, b = rng.choice(n, 2, replace=False)
                c.cx(int(a), int(b))
            else:
                c.rz(float(rng.uniform(0, 2 * math.pi)), int(rng.integers(n)))
        folded = fold_phases(c)
        assert trace_distance(c.unitary(), folded.unitary()) < 1e-6
        assert t_count(folded) <= t_count(c)

    def test_merges_through_cx_cancellation(self):
        c = Circuit(2).t(0).cx(0, 1).cx(0, 1).t(0)
        assert t_count(fold_phases(c)) == 0  # T.T = S

    def test_parity_merge(self):
        c = Circuit(2).cx(0, 1).t(1).cx(0, 1).cx(0, 1).t(1).cx(0, 1)
        folded = fold_phases(c)
        assert t_count(folded) == 0
        assert trace_distance(c.unitary(), folded.unitary()) < 1e-7

    def test_h_breaks_folding(self):
        c = Circuit(1).t(0).h(0).t(0)
        assert t_count(fold_phases(c)) == 2

    def test_x_conjugation_sign(self):
        c = Circuit(1).t(0).x(0).t(0).x(0)
        folded = fold_phases(c)
        assert t_count(folded) == 0  # T then X T X = T Tdg = I
        assert trace_distance(c.unitary(), folded.unitary()) < 1e-7


class TestKAKResynth:
    @pytest.mark.parametrize("seed", range(6))
    def test_kak_reconstructs(self, seed):
        from scipy.stats import unitary_group

        u = unitary_group.rvs(4, random_state=seed)
        d = kak_decompose(u)
        assert np.linalg.norm(d.reconstruct() - u) < 1e-6

    def test_kak_on_cx(self):
        cx = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
            dtype=complex,
        )
        d = kak_decompose(cx)
        assert np.linalg.norm(d.reconstruct() - cx) < 1e-6

    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_resynthesis_preserves_unitary(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        c = Circuit(n)
        for _ in range(20):
            r = rng.random()
            if r < 0.3:
                c.append(["h", "t", "s"][int(rng.integers(3))], int(rng.integers(n)))
            elif r < 0.6:
                c.rz(float(rng.uniform(0, 2 * math.pi)), int(rng.integers(n)))
            else:
                a, b = rng.choice(n, 2, replace=False)
                c.cx(int(a), int(b))
        rs = resynthesize(c)
        assert trace_distance(c.unitary(), rs.unitary()) < 1e-6

    def test_resynthesis_inflates_rotations(self):
        # A Clifford-only 2q block gains generic rotations: Figure 12.
        from repro.bench_circuits import qaoa_maxcut
        from repro.circuits import rotation_count
        from repro.transpiler import transpile

        rng = np.random.default_rng(1)
        c = qaoa_maxcut(6, 2, rng)
        direct = transpile(c, basis="u3", optimization_level=2,
                           commutation=True)
        resynth = transpile(resynthesize(c), basis="u3",
                            optimization_level=2, commutation=True)
        assert rotation_count(resynth) >= rotation_count(direct)
