"""Tests for QASM interop, drawing, resources, mixing, and the CLI."""

import math

import numpy as np
import pytest

from repro.circuits import Circuit, t_count
from repro.circuits.drawing import draw
from repro.circuits.qasm import QASMError, from_qasm, to_qasm
from repro.enumeration import get_table
from repro.linalg import haar_random_u2, trace_distance
from repro.resources import (
    SurfaceCodeModel,
    estimate_resources,
)
from repro.synthesis.mixing import (
    error_vector,
    mixing_weights,
    top_candidates,
    trasyn_mixed,
)


class TestQASM:
    def _roundtrip(self, c: Circuit) -> Circuit:
        return from_qasm(to_qasm(c))

    def test_roundtrip_preserves_unitary(self):
        c = Circuit(3)
        c.h(0).t(1).cx(0, 1).rz(0.7, 2).u3(0.1, 0.2, 0.3, 0).swap(1, 2)
        c.sdg(2).ry(1.1, 1).cz(0, 2)
        back = self._roundtrip(c)
        assert trace_distance(c.unitary(), back.unitary()) < 1e-7
        assert back.n_qubits == 3

    def test_aliases(self):
        text = """OPENQASM 2.0;
        include "qelib1.inc";
        qreg q[2];
        u(0.1,0.2,0.3) q[0];
        p(0.5) q[1];
        id q[0];
        """
        c = from_qasm(text)
        assert [g.name for g in c.gates] == ["u3", "rz", "i"]

    def test_pi_expressions(self):
        c = from_qasm("qreg q[1];\nrz(pi/4) q[0];\nrz(-2*pi) q[0];\n")
        assert c.gates[0].params[0] == pytest.approx(math.pi / 4)

    def test_measure_and_barrier_skipped(self):
        c = from_qasm(
            "qreg q[1];\ncreg c[1];\nbarrier q[0];\nh q[0];\nmeasure q[0] -> c[0];\n"
        )
        assert [g.name for g in c.gates] == ["h"]

    def test_errors(self):
        with pytest.raises(QASMError):
            from_qasm("h q[0];")  # no qreg
        with pytest.raises(QASMError):
            from_qasm("qreg q[1];\nmystery q[0];\n")
        with pytest.raises(QASMError):
            from_qasm("qreg q[1];\nrz(__import__) q[0];\n")

    def test_typo_gate_names_the_gate(self):
        # A typo'd gate name surfaces as "unsupported gate 'cxx'", not a
        # generic parameter/parse message.
        with pytest.raises(QASMError, match="unsupported gate 'cxx'"):
            from_qasm("qreg q[2];\ncxx q[0],q[1];\n")

    def test_param_errors_carry_cause(self):
        # Division by zero and malformed arithmetic both become
        # QASMError with the original exception chained, not swallowed.
        with pytest.raises(QASMError) as info:
            from_qasm("qreg q[1];\nrz(1/0) q[0];\n")
        assert isinstance(info.value.__cause__, ZeroDivisionError)
        with pytest.raises(QASMError) as info:
            from_qasm("qreg q[1];\nrz(1+*2) q[0];\n")
        assert isinstance(info.value.__cause__, SyntaxError)


class TestDrawing:
    def test_draw_contains_gates(self):
        c = Circuit(2).h(0).cx(0, 1).t(1)
        art = draw(c)
        assert "[H]" in art and "[T]" in art
        assert art.count("\n") == 1  # two wires

    def test_draw_parametrized(self):
        art = draw(Circuit(1).rz(0.5, 0))
        assert "RZ(0.50)" in art


class TestResources:
    def test_estimate_fields(self):
        c = Circuit(2).h(0).t(0).cx(0, 1).t(1)
        est = estimate_resources(c)
        assert est.t_count == 2
        assert est.code_distance % 2 == 1
        assert est.physical_qubits > est.logical_qubits
        assert est.execution_seconds > 0
        assert "T=2" in est.summary()

    def test_fewer_t_is_cheaper(self):
        few = Circuit(2).t(0)
        many = Circuit(2)
        for _ in range(50):
            many.t(0)
        cheap, costly = estimate_resources(few), estimate_resources(many)
        assert costly.t_count == 50 * cheap.t_count
        assert costly.execution_seconds > 5 * cheap.execution_seconds

    def test_distance_grows_with_budget(self):
        m = SurfaceCodeModel()
        d_loose = m.code_distance(1e-2, 10, 1000)
        d_tight = m.code_distance(1e-9, 10, 1000)
        assert d_tight > d_loose

    def test_distance_rejects_bad_inputs(self):
        m = SurfaceCodeModel(physical_error_rate=0.5)
        with pytest.raises(ValueError):
            m.code_distance(1e-3, 1, 1)
        with pytest.raises(ValueError):
            SurfaceCodeModel().code_distance(0.0, 1, 1)


class TestMixing:
    @pytest.fixture(scope="class")
    def table(self):
        return get_table(6)

    def test_error_vector_zero_for_exact(self):
        u = haar_random_u2(np.random.default_rng(0))
        assert np.linalg.norm(error_vector(u, u)) < 1e-9
        # Phase-insensitive:
        assert np.linalg.norm(error_vector(u, 1j * u)) < 1e-9

    def test_error_vector_tracks_rotation(self):
        from repro.linalg import rz

        v = error_vector(np.eye(2), rz(0.02))
        assert abs(v[2]) == pytest.approx(math.sin(0.01), abs=1e-9)
        assert abs(v[0]) < 1e-12 and abs(v[1]) < 1e-12

    def test_mixing_weights_cancel(self):
        vecs = np.array([[1.0, 0, 0], [-1.0, 0, 0]])
        p = mixing_weights(vecs)
        assert p == pytest.approx([0.5, 0.5], abs=1e-6)

    def test_mixing_weights_simplex(self):
        rng = np.random.default_rng(1)
        vecs = rng.normal(size=(6, 3)) * 0.01
        p = mixing_weights(vecs)
        assert p.sum() == pytest.approx(1.0)
        assert (p >= -1e-12).all()

    def test_top_candidates_sorted_and_distinct(self, table):
        u = haar_random_u2(np.random.default_rng(2))
        cands = top_candidates(u, [6], n_candidates=5, table=table,
                               rng=np.random.default_rng(0))
        errs = [c.error for c in cands]
        assert errs == sorted(errs)
        assert len({c.gates for c in cands}) == len(cands)

    def test_mixed_beats_coherent(self, table):
        rng = np.random.default_rng(3)
        improvements = []
        for _ in range(4):
            u = haar_random_u2(rng)
            mix = trasyn_mixed(u, [6], n_candidates=10, table=table, rng=rng)
            if len(mix.sequences) > 1:
                improvements.append(mix.improvement)
                assert mix.mixed_distance <= mix.coherent_distance + 1e-9
        assert improvements, "mixing never found multiple candidates"
        assert max(improvements) > 1.5


class TestCLI:
    def test_synth_rz(self, capsys):
        from repro.cli import main

        assert main(["synth-rz", "--theta", "0.7", "--eps", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "T count" in out

    def test_synth_u3(self, capsys):
        from repro.cli import main

        assert main(["synth-u3", "--theta", "0.5", "--phi", "0.2",
                     "--eps", "0.05"]) == 0
        assert "gates" in capsys.readouterr().out

    def test_catalog(self, capsys):
        from repro.cli import main

        assert main(["catalog", "--budget", "3"]) == 0
        assert "528" in capsys.readouterr().out

    def test_compile_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        src = tmp_path / "c.qasm"
        src.write_text(
            "qreg q[2];\nh q[0];\nrz(0.7) q[0];\ncx q[0],q[1];\n"
        )
        dst = tmp_path / "out.qasm"
        assert main(["compile", str(src), "--eps", "0.05",
                     "--output", str(dst)]) == 0
        compiled = from_qasm(dst.read_text())
        assert t_count(compiled) > 0

    def test_estimate(self, tmp_path, capsys):
        from repro.cli import main

        src = tmp_path / "c.qasm"
        src.write_text("qreg q[1];\nt q[0];\nt q[0];\n")
        assert main(["estimate", str(src)]) == 0
        assert "T=2" in capsys.readouterr().out
