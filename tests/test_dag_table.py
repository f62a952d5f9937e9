"""Columnar DAGTable: exact round-trips, kernel equivalence, verifier."""

import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import VerificationError, verify_table
from repro.circuits import Circuit, CircuitDAG, DAGTable, Gate
from repro.optimizers import (
    OptimizeStats,
    cancel_inverses_reference,
    cancel_inverses_table,
    collect_two_qubit_blocks_reference,
    collect_two_qubit_blocks_table,
    fold_phases_dag_reference,
    fold_phases_table,
    merge_rotations_reference,
    merge_rotations_table,
    optimize_dag_reference,
    optimize_table,
)
from repro.schedule import insert_idle_markers
from repro.target import CouplingMap, Target, fix_gate_directions, route_circuit
from repro.transpiler import transpile

from tests.test_dag import _random_circuit


def _gates(c: Circuit):
    return [(g.name, g.qubits, g.params) for g in c.gates]


class TestCircuitRoundtrip:
    @given(st.integers(0, 2000))
    @settings(max_examples=80, deadline=None)
    def test_from_circuit_to_circuit_exact(self, seed):
        c = _random_circuit(seed, max_qubits=6, max_gates=60)
        out = DAGTable.from_circuit(c).to_circuit()
        assert _gates(out) == _gates(c)
        assert out.n_qubits == c.n_qubits

    def test_idle_markers_round_trip(self):
        c = Circuit(3)
        c.append("h", 0)
        c.append("cx", (0, 1))
        c.append("t", 2)
        marked = insert_idle_markers(c)
        assert any(g.name == "i" and g.params for g in marked.gates)
        out = DAGTable.from_circuit(marked).to_circuit()
        assert _gates(out) == _gates(marked)

    def test_routed_directed_coupling_round_trip(self):
        target = Target(
            coupling=CouplingMap(4, [(0, 1), (1, 2), (2, 3)], directed=True)
        )
        c = Circuit(4)
        c.append("h", 0)
        c.append("cx", (3, 0))
        c.append("cx", (2, 0))
        c.append("t", 3)
        placed = route_circuit(c, target).circuit
        fixed, _ = fix_gate_directions(placed, target)
        routed = transpile(fixed, basis="rz", optimization_level=2)
        out = DAGTable.from_circuit(routed).to_circuit()
        assert _gates(out) == _gates(routed)

    def test_exotic_gate_rejected(self):
        c = Circuit(1, [Gate("weird", (0,))])
        with pytest.raises((ValueError, KeyError)):
            DAGTable.from_circuit(c)


class TestKernelByteIdentical:
    """Each columnar kernel is byte-identical to its reference loop."""

    @given(st.integers(0, 3000))
    @settings(max_examples=60, deadline=None)
    def test_cancel_inverses(self, seed):
        c = _random_circuit(seed, max_qubits=6, max_gates=60)
        dag = CircuitDAG.from_circuit(c)
        ref_removed = cancel_inverses_reference(dag)
        table = DAGTable.from_circuit(c)
        removed, _ = cancel_inverses_table(table)
        assert removed == ref_removed
        assert _gates(table.to_circuit()) == _gates(dag.to_circuit())

    @given(st.integers(0, 3000))
    @settings(max_examples=60, deadline=None)
    def test_merge_rotations(self, seed):
        c = _random_circuit(seed, max_qubits=6, max_gates=60)
        dag = CircuitDAG.from_circuit(c)
        ref_removed = merge_rotations_reference(dag)
        table = DAGTable.from_circuit(c)
        removed, _ = merge_rotations_table(table)
        assert removed == ref_removed
        assert _gates(table.to_circuit()) == _gates(dag.to_circuit())

    @given(st.integers(0, 3000))
    @settings(max_examples=60, deadline=None)
    def test_fold_phases(self, seed):
        c = _random_circuit(seed, max_qubits=6, max_gates=60)
        dag = CircuitDAG.from_circuit(c)
        fold_phases_dag_reference(dag)
        table = DAGTable.from_circuit(c)
        fold_phases_table(table)
        assert _gates(table.to_circuit()) == _gates(dag.to_circuit())

    @given(st.integers(0, 3000))
    @settings(max_examples=60, deadline=None)
    def test_collect_blocks(self, seed):
        c = _random_circuit(seed, max_qubits=6, max_gates=60)
        dag = CircuitDAG.from_circuit(c)
        ref_blocks = collect_two_qubit_blocks_reference(dag)
        table = DAGTable.from_circuit(c)
        blocks = collect_two_qubit_blocks_table(table)
        assert blocks == ref_blocks

    @given(st.integers(0, 3000))
    @settings(max_examples=40, deadline=None)
    def test_optimize_fixpoint(self, seed):
        c = _random_circuit(seed, max_qubits=6, max_gates=60)
        dag = CircuitDAG.from_circuit(c)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            ref_stats = optimize_dag_reference(dag)
            table = DAGTable.from_circuit(c)
            stats = optimize_table(table)
        assert stats.removed == ref_stats.removed
        assert stats.converged == ref_stats.converged
        assert stats.per_pass == ref_stats.per_pass
        assert _gates(table.to_circuit()) == _gates(dag.to_circuit())


class TestOptimizeStats:
    def test_fields_and_int_adapter(self):
        c = Circuit(2)
        c.append("h", 0)
        c.append("h", 0)
        c.append("cx", (0, 1))
        table = DAGTable.from_circuit(c)
        stats = optimize_table(table)
        assert isinstance(stats, OptimizeStats)
        assert stats.removed == 2
        assert stats.converged is True
        assert stats.rounds >= 1
        assert stats.per_pass["cancel_inverses"] == 2

    def test_round_cap_warns_and_flags(self):
        # t gates fold only once merge+cancel expose them; one round is
        # never enough on this stream, so the cap of 1 must trip.
        c = Circuit(1)
        for _ in range(4):
            c.append("t", 0)
            c.append("h", 0)
            c.append("h", 0)
        table = DAGTable.from_circuit(c)
        with pytest.warns(UserWarning, match="round cap"):
            stats = optimize_table(table, max_rounds=1)
        assert stats.converged is False
        assert stats.rounds == 1

    def test_reference_round_cap_warns_too(self):
        c = Circuit(1)
        for _ in range(4):
            c.append("t", 0)
            c.append("h", 0)
            c.append("h", 0)
        dag = CircuitDAG.from_circuit(c)
        with pytest.warns(UserWarning, match="round cap"):
            stats = optimize_dag_reference(dag, max_rounds=1)
        assert stats.converged is False


class TestVerifyTable:
    def test_clean_table_passes(self):
        c = _random_circuit(7, max_qubits=5, max_gates=40)
        table = DAGTable.from_circuit(c)
        verify_table(table)  # must not raise
        cancel_inverses_table(table)
        verify_table(table)

    def test_broken_link_detected(self):
        c = Circuit(2)
        c.append("h", 0)
        c.append("cx", (0, 1))
        c.append("t", 1)
        table = DAGTable.from_circuit(c)
        table._succ0[0] = 2  # h now skips the cx on wire 0
        with pytest.raises(VerificationError):
            verify_table(table)

    def test_nonmonotone_pos_detected(self):
        c = Circuit(1)
        c.append("h", 0)
        c.append("t", 0)
        table = DAGTable.from_circuit(c)
        table._pos[1] = table._pos[0] - 1.0
        with pytest.raises(VerificationError):
            verify_table(table)
