"""Tests for the circuit IR and resource metrics."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import (
    Circuit,
    Gate,
    clifford_count,
    is_trivial_angle,
    rotation_count,
    t_count,
    t_depth,
)
from repro.linalg import trace_distance


class TestConstruction:
    def test_builder_chain(self):
        c = Circuit(2).h(0).cx(0, 1).t(1)
        assert len(c) == 3

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Circuit(2).h(2)

    def test_rejects_duplicate_qubits(self):
        with pytest.raises(ValueError):
            Circuit(2).cx(1, 1)

    def test_rejects_unknown_gate(self):
        with pytest.raises(ValueError):
            Circuit(1).append("foo", 0)

    def test_rejects_wrong_params(self):
        with pytest.raises(ValueError):
            Circuit(1).append("rz", 0, ())
        with pytest.raises(ValueError):
            Circuit(1).append("h", 0, (0.1,))

    def test_gate_is_slotted_and_pickles(self):
        # Gates hold no per-instance dict; compile_batch's process mode
        # still ships them between workers by pickle.
        gate = Gate("rz", (1,), (0.25,))
        assert not hasattr(gate, "__dict__")
        clone = pickle.loads(pickle.dumps(gate))
        assert clone == gate and hash(clone) == hash(gate)
        circuit = Circuit(2).h(0).cx(0, 1).rz(0.5, 1)
        assert pickle.loads(pickle.dumps(circuit)).gates == circuit.gates

    def test_parameterless_appends_share_one_gate(self):
        a = Circuit(3).h(1).cx(0, 2)
        b = Circuit(3).h(1).cx(0, 2).h(1)
        assert a.gates[0] is b.gates[0] is b.gates[2]
        assert a.gates[1] is b.gates[1]
        assert b.gates[0] is not Circuit(3).h(2).gates[0]
        assert b.gates[1] is not Circuit(3).cx(2, 0).gates[0]
        # Rotations carry their angle and are built fresh.
        c = Circuit(1).rz(0.5, 0).rz(0.5, 0)
        assert c.gates[0] == c.gates[1] and c.gates[0] is not c.gates[1]

    def test_idle_markers_are_never_shared(self):
        from repro.circuits.circuit import is_idle_marker
        from repro.schedule import idle_marker

        plain = Circuit(2).append("i", 0).gates[0]
        marks = [idle_marker(0, 2.5), idle_marker(0, 2.5)]
        assert all(is_idle_marker(m) for m in marks)
        assert not is_idle_marker(plain)
        assert marks[0] == marks[1] and marks[0] is not marks[1]
        assert all(m is not plain and m != plain for m in marks)

    def test_shared_gates_survive_a_pickle_round_trip(self):
        circuit = Circuit(3).h(0).cx(0, 1).t(1).h(0).rz(0.5, 2).h(0)
        clone = pickle.loads(pickle.dumps(circuit))
        assert clone.gates == circuit.gates
        assert np.allclose(clone.statevector(), circuit.statevector())
        clone.h(0)
        assert clone.gates[-1] is circuit.gates[0]


class TestSemantics:
    def test_bell_state(self):
        psi = Circuit(2).h(0).cx(0, 1).statevector()
        expected = np.zeros(4, dtype=complex)
        expected[0] = expected[3] = 1 / math.sqrt(2)
        assert np.allclose(psi, expected)

    def test_unitary_matches_statevector(self):
        c = Circuit(2).h(0).rz(0.7, 0).cx(0, 1).rx(0.3, 1)
        u = c.unitary()
        assert np.allclose(u[:, 0], c.statevector())

    def test_inverse(self):
        c = Circuit(2).h(0).t(0).cx(0, 1).rz(0.9, 1).u3(0.1, 0.2, 0.3, 0)
        total = c.copy().compose(c.inverse())
        assert trace_distance(total.unitary(), np.eye(4)) < 1e-7

    def test_ccx_is_toffoli(self):
        c = Circuit(3).ccx(0, 1, 2)
        u = c.unitary()
        expected = np.eye(8, dtype=complex)
        # Circuit.unitary orders qubit 0 as the most significant axis.
        expected[[6, 7]] = expected[[7, 6]]
        assert trace_distance(u, expected) < 1e-7

    def test_cp_phase(self):
        theta = 0.817
        u = Circuit(2).cp(theta, 0, 1).unitary()
        expected = np.diag([1, 1, 1, np.exp(1j * theta)])
        assert trace_distance(u, expected) < 1e-7

    def test_cry(self):
        theta = 1.234
        u = Circuit(2).cry(theta, 0, 1).unitary()
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        expected = np.eye(4, dtype=complex)
        expected[2:, 2:] = [[c, -s], [s, c]]
        assert trace_distance(u, expected) < 1e-7

    def test_swap(self):
        u = Circuit(2).swap(0, 1).unitary()
        psi_in = np.zeros(4, dtype=complex)
        psi_in[1] = 1.0  # |01>
        assert np.allclose(u @ psi_in, np.eye(4)[2])  # -> |10>

    def test_unitary_guard(self):
        with pytest.raises(ValueError):
            Circuit(13).unitary()


class TestMetrics:
    def test_t_count(self):
        c = Circuit(1).t(0).tdg(0).s(0).t(0)
        assert t_count(c) == 3

    def test_t_depth_parallel(self):
        c = Circuit(2).t(0).t(1)  # parallel: depth 1
        assert t_depth(c) == 1

    def test_t_depth_serial_through_cx(self):
        c = Circuit(2).t(0).cx(0, 1).t(1)
        assert t_depth(c) == 2

    def test_clifford_count_excludes_paulis_and_cx(self):
        c = Circuit(2).h(0).s(0).sdg(1).x(0).z(1).cx(0, 1)
        assert clifford_count(c) == 3

    def test_trivial_angles(self):
        assert is_trivial_angle(0.0)
        assert is_trivial_angle(math.pi / 4)
        assert is_trivial_angle(-math.pi)
        assert is_trivial_angle(2 * math.pi)
        assert not is_trivial_angle(0.3)

    def test_rotation_count(self):
        c = Circuit(1).rz(0.3, 0).rz(math.pi / 2, 0).rx(1.1, 0)
        assert rotation_count(c) == 2

    def test_u3_rotation_counting(self):
        c = Circuit(1)
        c.u3(math.pi / 2, 0.0, math.pi, 0)  # H-like: trivial angles
        c.u3(0.3, 0.1, 0.2, 0)
        assert rotation_count(c) == 1

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20)
    def test_t_depth_leq_t_count(self, seed):
        rng = np.random.default_rng(seed)
        c = Circuit(3)
        for _ in range(30):
            if rng.random() < 0.5:
                c.t(int(rng.integers(3)))
            else:
                a, b = rng.choice(3, 2, replace=False)
                c.cx(int(a), int(b))
        assert t_depth(c) <= t_count(c)
