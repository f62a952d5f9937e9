"""DAG optimization passes: soundness, commutation wins, preset level 4."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import (
    Circuit,
    CircuitDAG,
    depth,
    rotation_count,
    t_count,
)
from repro.linalg import trace_distance
from repro.optimizers import (
    cancel_inverses,
    collect_two_qubit_blocks,
    fold_phases,
    fold_phases_dag,
    merge_rotations,
    optimize_circuit,
    partition_two_qubit_blocks,
    resynthesize,
)
from repro.pipeline import DagOptimize, PassManager, preset_pipeline
from repro.transpiler import transpile

from tests.test_dag import _random_circuit


def _dist(c: Circuit, out: Circuit) -> float:
    return trace_distance(c.unitary(), out.unitary())


class TestPassSoundness:
    """Every pass preserves the unitary (up to global phase)."""

    @given(st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_cancel_inverses(self, seed):
        c = _random_circuit(seed, max_gates=30)
        dag = CircuitDAG.from_circuit(c)
        cancel_inverses(dag)
        assert _dist(c, dag.to_circuit()) < 1e-6

    @given(st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_merge_rotations(self, seed):
        c = _random_circuit(seed, max_gates=30)
        dag = CircuitDAG.from_circuit(c)
        merge_rotations(dag)
        assert _dist(c, dag.to_circuit()) < 1e-6

    @given(st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_fold_phases_dag(self, seed):
        c = _random_circuit(seed, max_gates=30)
        dag = CircuitDAG.from_circuit(c)
        fold_phases_dag(dag)
        assert _dist(c, dag.to_circuit()) < 1e-6

    @given(st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_fold_phases_dag_matches_reference(self, seed):
        # The bit-matrix parity tracker must make the exact decisions
        # the retained set-based reference makes: same surviving gate
        # stream, same number of folded-away phase gates.
        from repro.optimizers.dag_passes import fold_phases_dag_reference

        c = _random_circuit(seed, max_gates=40)
        vec_dag = CircuitDAG.from_circuit(c)
        ref_dag = CircuitDAG.from_circuit(c)
        fold_phases_dag(vec_dag)
        fold_phases_dag_reference(ref_dag)
        vec = [(g.name, g.qubits, g.params)
               for g in vec_dag.to_circuit().gates]
        ref = [(g.name, g.qubits, g.params)
               for g in ref_dag.to_circuit().gates]
        assert vec == ref

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
        dag = CircuitDAG.from_circuit(c)
        cancel_inverses(dag)
        out = dag.to_circuit()
        assert [g.name for g in out.gates] == ["x", "s"]

    def test_cancel_chain_collapse(self):
        c = Circuit(1).h(0).x(0).x(0).h(0)
        dag = CircuitDAG.from_circuit(c)
        assert cancel_inverses(dag) == 4
        assert len(dag) == 0

    def test_cancel_cx_pair_with_spectator(self):
        c = Circuit(3).cx(0, 1).h(2).cx(0, 1)
        dag = CircuitDAG.from_circuit(c)
        cancel_inverses(dag)
        assert [g.name for g in dag.to_circuit().gates] == ["h"]

    def test_cx_reversed_does_not_cancel(self):
        c = Circuit(2).cx(0, 1).cx(1, 0)
        dag = CircuitDAG.from_circuit(c)
        cancel_inverses(dag)
        assert len(dag) == 2

    def test_swap_cancels_either_orientation(self):
        c = Circuit(2).swap(0, 1).swap(1, 0)
        dag = CircuitDAG.from_circuit(c)
        cancel_inverses(dag)
        assert len(dag) == 0

    def test_merge_rz_through_independent_wires(self):
        c = Circuit(2)
        c.rz(0.3, 0).h(1).t(1).rz(0.4, 0)
        dag = CircuitDAG.from_circuit(c)
        merge_rotations(dag)
        out = dag.to_circuit()
        rzs = [g for g in out.gates if g.name == "rz"]
        assert len(rzs) == 1
        assert rzs[0].params[0] == pytest.approx(0.7)

    def test_merge_u3_fusion(self):
        c = Circuit(1).u3(0.3, 0.2, 0.1, 0).u3(0.5, -0.4, 0.9, 0)
        dag = CircuitDAG.from_circuit(c)
        merge_rotations(dag)
        out = dag.to_circuit()
        assert len(out.gates) == 1 and out.gates[0].name == "u3"
        assert _dist(c, out) < 1e-6

    def test_merge_inverse_rotation_vanishes(self):
        c = Circuit(1).rz(0.8, 0).rz(-0.8, 0)
        dag = CircuitDAG.from_circuit(c)
        merge_rotations(dag)
        assert len(dag) == 0

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
        dag = CircuitDAG.from_circuit(c)
        fold_phases_dag(dag)
        out = dag.to_circuit()
        assert t_count(out) == 0  # merged into a single S
        assert _dist(c, out) < 1e-6

    def test_fold_x_conjugation(self):
        c = Circuit(1).t(0).x(0).t(0).x(0)
        dag = CircuitDAG.from_circuit(c)
        fold_phases_dag(dag)
        assert t_count(dag.to_circuit()) == 0
        assert _dist(c, dag.to_circuit()) < 1e-6


class TestTwoQubitBlocks:
    def test_blocks_cover_all_gates(self):
        c = _random_circuit(21, max_qubits=4, max_gates=30)
        blocks = collect_two_qubit_blocks(CircuitDAG.from_circuit(c))
        assert sum(len(gates) for _, gates in blocks) == len(c.gates)

    def test_dag_blocks_group_interleaved_pairs(self):
        # (0,1) work interleaved with independent (2,3) work: the flat
        # scan closes nothing, but DAG collection groups each pair.
        c = Circuit(4)
        c.cx(0, 1).cx(2, 3).t(1).t(3).cx(0, 1).cx(2, 3)
        flat = partition_two_qubit_blocks(c)
        dag_blocks = collect_two_qubit_blocks(CircuitDAG.from_circuit(c))
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


class TestEngineEquivalence:
    """The columnar engine is byte-identical to reference end to end."""

    @pytest.fixture(autouse=True)
    def _restore_engine(self):
        from repro.optimizers import dag_engine, set_dag_engine

        previous = dag_engine()
        yield
        set_dag_engine(previous)

    @pytest.mark.parametrize("level", [0, 1, 2, 3, 4])
    def test_presets_identical_across_engines(self, level):
        from repro.optimizers import set_dag_engine

        for seed in (3, 11, 29):
            c = _random_circuit(seed, max_qubits=4, max_gates=30)
            set_dag_engine("columnar")
            col = transpile(c, basis="rz", optimization_level=level)
            set_dag_engine("reference")
            ref = transpile(c, basis="rz", optimization_level=level)
            assert [
                (g.name, g.qubits, g.params) for g in col.gates
            ] == [(g.name, g.qubits, g.params) for g in ref.gates]

    def test_optimize_circuit_identical_across_engines(self):
        from repro.optimizers import set_dag_engine

        for seed in range(20):
            c = _random_circuit(seed, max_qubits=5, max_gates=50)
            set_dag_engine("columnar")
            col = optimize_circuit(c)
            set_dag_engine("reference")
            ref = optimize_circuit(c)
            assert [
                (g.name, g.qubits, g.params) for g in col.gates
            ] == [(g.name, g.qubits, g.params) for g in ref.gates]

    def test_set_dag_engine_rejects_unknown(self):
        from repro.optimizers import set_dag_engine

        with pytest.raises(ValueError):
            set_dag_engine("turbo")

    def test_optimize_dag_returns_stats(self):
        from repro.optimizers import OptimizeStats, optimize_dag

        c = Circuit(2)
        c.append("h", 0)
        c.append("h", 0)
        c.append("cx", (0, 1))
        stats = optimize_dag(CircuitDAG.from_circuit(c))
        assert isinstance(stats, OptimizeStats)
        assert stats.removed == 2 and stats.converged

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
