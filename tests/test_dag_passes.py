"""DAG optimization passes: soundness, commutation wins, preset level 4."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import (
    Circuit,
    CircuitDAG,
    DAGTable,
    Gate,
    depth,
    rotation_count,
    t_count,
)
from repro.linalg import trace_distance
from repro.optimizers import (
    cancel_inverses_reference,
    cancel_inverses_table,
    collect_two_qubit_blocks_table,
    fold_phases,
    fold_phases_dag_reference,
    fold_phases_table,
    merge_rotations_reference,
    merge_rotations_table,
    optimize_circuit,
    optimize_dag_reference,
    partition_two_qubit_blocks,
    resynthesize,
)
from repro.pipeline import (
    DAGPass,
    DagOptimize,
    Pass,
    PassManager,
    preset_pipeline,
)
from repro.transpiler import transpile

from tests.test_dag import _random_circuit


def _dist(c: Circuit, out: Circuit) -> float:
    return trace_distance(c.unitary(), out.unitary())


def _run_kernel(kernel, c: Circuit) -> tuple[int, Circuit]:
    """``from_circuit`` → kernel → ``to_circuit``: (removed, output)."""
    table = DAGTable.from_circuit(c)
    removed, _ = kernel(table)
    return removed, table.to_circuit()


class TestPassSoundness:
    """Every pass preserves the unitary (up to global phase)."""

    @given(st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_cancel_inverses(self, seed):
        c = _random_circuit(seed, max_gates=30)
        _, out = _run_kernel(cancel_inverses_table, c)
        assert _dist(c, out) < 1e-6

    @given(st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_merge_rotations(self, seed):
        c = _random_circuit(seed, max_gates=30)
        _, out = _run_kernel(merge_rotations_table, c)
        assert _dist(c, out) < 1e-6

    @given(st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_fold_phases_dag(self, seed):
        c = _random_circuit(seed, max_gates=30)
        _, out = _run_kernel(fold_phases_table, c)
        assert _dist(c, out) < 1e-6

    @given(st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_optimize_circuit(self, seed):
        c = _random_circuit(seed, max_gates=30)
        out = optimize_circuit(c)
        assert _dist(c, out) < 1e-6
        assert len(out.gates) <= len(c.gates) + 1  # phase re-emission slack


class TestCommutationAwareness:
    """Wire adjacency sees through gates on independent wires."""

    def test_cancel_through_independent_wires(self):
        c = Circuit(2).h(0).x(1).s(1).h(0)
        _, out = _run_kernel(cancel_inverses_table, c)
        assert [g.name for g in out.gates] == ["x", "s"]

    def test_cancel_chain_collapse(self):
        c = Circuit(1).h(0).x(0).x(0).h(0)
        removed, out = _run_kernel(cancel_inverses_table, c)
        assert removed == 4
        assert len(out.gates) == 0

    def test_cancel_cx_pair_with_spectator(self):
        c = Circuit(3).cx(0, 1).h(2).cx(0, 1)
        _, out = _run_kernel(cancel_inverses_table, c)
        assert [g.name for g in out.gates] == ["h"]

    def test_cx_reversed_does_not_cancel(self):
        c = Circuit(2).cx(0, 1).cx(1, 0)
        _, out = _run_kernel(cancel_inverses_table, c)
        assert len(out.gates) == 2

    def test_swap_cancels_either_orientation(self):
        c = Circuit(2).swap(0, 1).swap(1, 0)
        _, out = _run_kernel(cancel_inverses_table, c)
        assert len(out.gates) == 0

    def test_merge_rz_through_independent_wires(self):
        c = Circuit(2)
        c.rz(0.3, 0).h(1).t(1).rz(0.4, 0)
        _, out = _run_kernel(merge_rotations_table, c)
        rzs = [g for g in out.gates if g.name == "rz"]
        assert len(rzs) == 1
        assert rzs[0].params[0] == pytest.approx(0.7)

    def test_merge_u3_fusion(self):
        c = Circuit(1).u3(0.3, 0.2, 0.1, 0).u3(0.5, -0.4, 0.9, 0)
        _, out = _run_kernel(merge_rotations_table, c)
        assert len(out.gates) == 1 and out.gates[0].name == "u3"
        assert _dist(c, out) < 1e-6

    def test_merge_inverse_rotation_vanishes(self):
        c = Circuit(1).rz(0.8, 0).rz(-0.8, 0)
        _, out = _run_kernel(merge_rotations_table, c)
        assert len(out.gates) == 0

    def test_fold_merges_t_through_cx_parity(self):
        # T on q1, CX(0,1) twice restores the parity, T on q1 again:
        # the two Ts share one parity term and merge into S.
        c = Circuit(2).t(1).cx(0, 1).cx(0, 1).t(1)
        out = optimize_circuit(c)
        assert t_count(out) == 0
        assert _dist(c, out) < 1e-6

    def test_fold_across_independent_wires(self):
        # The list-based fold also handles this; the DAG pass must too.
        c = Circuit(2).t(0).h(1).s(1).h(1).t(0)
        _, out = _run_kernel(fold_phases_table, c)
        assert t_count(out) == 0  # merged into a single S
        assert _dist(c, out) < 1e-6

    def test_fold_x_conjugation(self):
        c = Circuit(1).t(0).x(0).t(0).x(0)
        _, out = _run_kernel(fold_phases_table, c)
        assert t_count(out) == 0
        assert _dist(c, out) < 1e-6


class TestTwoQubitBlocks:
    def test_blocks_cover_all_gates(self):
        c = _random_circuit(21, max_qubits=4, max_gates=30)
        blocks = collect_two_qubit_blocks_table(DAGTable.from_circuit(c))
        assert sum(len(gates) for _, gates in blocks) == len(c.gates)

    def test_dag_blocks_group_interleaved_pairs(self):
        # (0,1) work interleaved with independent (2,3) work: the flat
        # scan closes nothing, but DAG collection groups each pair.
        c = Circuit(4)
        c.cx(0, 1).cx(2, 3).t(1).t(3).cx(0, 1).cx(2, 3)
        flat = partition_two_qubit_blocks(c)
        dag_blocks = collect_two_qubit_blocks_table(DAGTable.from_circuit(c))
        assert len(dag_blocks) <= len(flat)
        assert len(dag_blocks) == 2

    def test_resynthesize_dag_blocks_preserves_unitary(self):
        for seed in (3, 5, 8):
            c = _random_circuit(seed, max_qubits=3, max_gates=20)
            if c.n_qubits < 2 or not c.gates:
                continue
            out = resynthesize(c, dag_blocks=True)
            assert _dist(c, out) < 1e-5


class TestPresetLevel4:
    @pytest.mark.parametrize("basis", ["u3", "rz"])
    @pytest.mark.parametrize("commutation", [False, True])
    def test_preserves_unitary(self, basis, commutation):
        c = _random_circuit(42, max_qubits=3, max_gates=25)
        out = transpile(c, basis=basis, optimization_level=4,
                        commutation=commutation)
        assert _dist(c, out) < 1e-6

    def test_u3_basis_purity(self):
        c = _random_circuit(17, max_qubits=3, max_gates=25)
        out = transpile(c, basis="u3", optimization_level=4)
        assert all(g.name in ("u3", "cx", "cz", "swap") for g in out.gates)

    def test_rz_basis_purity(self):
        c = _random_circuit(17, max_qubits=3, max_gates=25)
        out = transpile(c, basis="rz", optimization_level=4)
        allowed = {"rz", "h", "s", "sdg", "t", "tdg", "x", "y", "z", "i",
                   "cx", "cz", "swap"}
        assert all(g.name in allowed for g in out.gates)

    def test_no_worse_than_level_3(self):
        for seed in (0, 5, 6, 11, 15):
            c = _random_circuit(seed, max_qubits=3, max_gates=30)
            l3 = transpile(c, basis="rz", optimization_level=3)
            l4 = transpile(c, basis="rz", optimization_level=4)
            assert rotation_count(l4) <= rotation_count(l3)

    def test_level_5_still_invalid(self):
        with pytest.raises(ValueError):
            preset_pipeline("u3", optimization_level=5)

    def test_dag_optimize_pass_in_manager(self):
        c = Circuit(2).t(0).cx(0, 1).cx(0, 1).t(0).h(1).h(1)
        out = PassManager([DagOptimize()]).run(c)
        assert t_count(out) == 0
        assert all(g.name != "h" for g in out.gates)


class TestGuardsRaise:
    """The bare asserts replaced by RuntimeErrors (python -O safety)."""

    def test_trasyn_empty_schedule(self):
        from repro.enumeration import get_table
        from repro.synthesis import trasyn

        with pytest.raises(RuntimeError):
            trasyn(np.eye(2, dtype=complex), schedule=[],
                   table=get_table(2))


@pytest.mark.slow
class TestPostOptAcceptance:
    """DAG optimizer vs fold_phases on synthesized bench circuits."""

    @pytest.fixture(scope="class")
    def synthesized(self):
        from repro.bench_circuits import ft_algorithms as ft
        from repro.pipeline import compile_circuit

        cases = [ft.qft(3), ft.w_state(4)]
        out = []
        for i, circ in enumerate(cases):
            wf = "gridsynth" if i % 2 == 0 else "trasyn"
            out.append(
                compile_circuit(circ, workflow=wf, eps=0.03, seed=0).circuit
            )
        return out

    def test_t_count_and_depth_dominate_fold(self, synthesized):
        fold_depths, dag_depths = 0, 0
        for c in synthesized:
            folded = fold_phases(c)
            dagged = optimize_circuit(c)
            assert t_count(dagged) <= t_count(folded)
            assert depth(dagged) <= depth(folded)
            fold_depths += depth(folded)
            dag_depths += depth(dagged)
            assert _dist(c, dagged) < 1e-6
        # Aggregate strict win: the DAG passes find depth the
        # adjacent-only fold cannot.
        assert dag_depths < fold_depths

    def test_rq5_runs_with_both_optimizers(self):
        from repro.experiments.rq5_postopt import OPTIMIZERS, run_rq5

        assert set(OPTIMIZERS) == {"dag", "fold"}
        with pytest.raises(ValueError):
            run_rq5([], optimizer="bogus")
        assert run_rq5([]) == []


class TestCLIOptimizationLevel:
    _QASM = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
h q[0];
rz(0.4) q[0];
cx q[0],q[1];
rz(0.7) q[1];
h q[1];
"""

    def test_compile_with_level_4(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "c.qasm"
        path.write_text(self._QASM)
        rc = main(["compile", str(path), "--workflow", "gridsynth",
                   "--eps", "0.05", "-O", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "circuit depth" in out


def _gates(c: Circuit):
    return [(g.name, g.qubits, g.params) for g in c.gates]


#: Each DAGPass's per-node reference twin, keyed by pass name.
_REFERENCE_TWINS = {
    "cancel_inverses": cancel_inverses_reference,
    "merge_rotations": merge_rotations_reference,
    "fold_phases": fold_phases_dag_reference,
    "dag_optimize": optimize_dag_reference,
}


class _ReferenceTwin(Pass):
    """Runs a DAGPass's ``*_reference`` twin on a CircuitDAG."""

    def __init__(self, dag_pass: DAGPass):
        self.name = dag_pass.name
        self.fn = _REFERENCE_TWINS[dag_pass.name]

    def run(self, circuit: Circuit) -> Circuit:
        dag = CircuitDAG.from_circuit(circuit)
        self.fn(dag)
        return dag.to_circuit()


class TestEngineEquivalence:
    """The table kernels are byte-identical to the reference loops."""

    @pytest.mark.parametrize("level", [0, 1, 2, 3, 4])
    def test_presets_identical_across_engines(self, level):
        passes = list(preset_pipeline("rz", optimization_level=level))
        assert (level == 4) == any(isinstance(p, DAGPass) for p in passes)
        reference = PassManager([
            _ReferenceTwin(p) if isinstance(p, DAGPass) else p
            for p in passes
        ])
        for seed in (3, 11, 29):
            c = _random_circuit(seed, max_qubits=4, max_gates=30)
            col = transpile(c, basis="rz", optimization_level=level)
            assert _gates(col) == _gates(reference.run(c))

    def test_optimize_circuit_identical_across_engines(self):
        for seed in range(20):
            c = _random_circuit(seed, max_qubits=5, max_gates=50)
            dag = CircuitDAG.from_circuit(c)
            optimize_dag_reference(dag)
            assert _gates(optimize_circuit(c)) == _gates(dag.to_circuit())

    def test_dag_optimize_pass_surfaces_stats_in_metrics(self):
        pm = PassManager([DagOptimize()], validate="full")
        c = Circuit(2)
        c.append("h", 0)
        c.append("h", 0)
        c.append("cx", (0, 1))
        res = pm.run_detailed(c)
        (metrics,) = res.metrics
        assert metrics.extra["removed"] == 2
        assert metrics.extra["converged"] is True
        assert metrics.extra["rounds"] >= 1


class TestOutOfVocabulary:
    """A gate outside the IR vocabulary fails loudly, never passes through."""

    @staticmethod
    def _circuit() -> Circuit:
        return Circuit(2, [Gate("h", (0,)), Gate("weird", (0,)),
                           Gate("h", (0,))])

    def test_optimize_circuit_raises(self):
        with pytest.raises(ValueError, match="weird"):
            optimize_circuit(self._circuit())

    @pytest.mark.parametrize("basis", ["u3", "rz"])
    def test_level_4_transpile_raises(self, basis):
        with pytest.raises(ValueError, match="weird"):
            transpile(self._circuit(), basis=basis, optimization_level=4)
