"""End-to-end CLI tests: ``main(argv)`` against small QASM fixtures."""

import re

import pytest

from repro.circuits.qasm import from_qasm
from repro.cli import main

_FIXTURE = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
h q[0];
rz(0.4) q[0];
cx q[0],q[1];
rz(0.7) q[1];
h q[1];
"""


@pytest.fixture
def qasm_file(tmp_path):
    path = tmp_path / "fixture.qasm"
    path.write_text(_FIXTURE)
    return path


def _field(output: str, label: str) -> str:
    m = re.search(rf"^{re.escape(label)}\s*:\s*(.+)$", output, re.MULTILINE)
    assert m, f"field {label!r} missing from output:\n{output}"
    return m.group(1).strip()


class TestSynthRz:
    def test_synthesizes_within_eps(self, capsys):
        rc = main(["synth-rz", "--theta", "0.5", "--eps", "0.05"])
        out = capsys.readouterr().out
        assert rc == 0
        assert float(_field(out, "error")) <= 0.05
        assert int(_field(out, "T count")) > 0
        gates = _field(out, "gates").split()
        assert gates and set(gates) <= {
            "H", "S", "Sdg", "T", "Tdg", "X", "Y", "Z", "I"
        }


class TestCompile:
    def test_compile_gridsynth(self, qasm_file, tmp_path, capsys):
        out_path = tmp_path / "compiled.qasm"
        rc = main([
            "compile", str(qasm_file), "--workflow", "gridsynth",
            "--eps", "0.05", "--output", str(out_path),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert int(_field(out, "rotations synthesized")) == 2
        assert int(_field(out, "T count")) > 0
        assert float(_field(out, "synthesis error bound")) <= 2 * 0.05
        # The written QASM is valid and purely discrete.
        compiled = from_qasm(out_path.read_text())
        assert all(g.name != "rz" for g in compiled.gates)

    def test_compile_trasyn(self, qasm_file, capsys):
        rc = main([
            "compile", str(qasm_file), "--workflow", "trasyn",
            "--eps", "0.15",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert int(_field(out, "rotations synthesized")) >= 1
        assert int(_field(out, "Clifford count")) >= 0

    @pytest.mark.parametrize("command", ["compile", "compile-batch"])
    @pytest.mark.parametrize("flag", ["--eps", "--eps-budget"])
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-0.01"])
    def test_rejects_bad_threshold(self, qasm_file, command, flag, value,
                                   capsys):
        # NaN used to synthesize every rotation at the 1e-10 floor.
        with pytest.raises(SystemExit) as exc:
            main([command, str(qasm_file), "--workflow", "gridsynth",
                  f"{flag}={value}"])
        assert exc.value.code == 2
        assert "must be a finite positive number" in capsys.readouterr().err

    def test_compile_survives_corrupt_cache_file(self, qasm_file, tmp_path,
                                                 capsys):
        store_dir = tmp_path / "store"
        seg_dir = store_dir / "segments"
        seg_dir.mkdir(parents=True)
        (store_dir / "index.json").write_text("{garbage")
        for shard in range(16):
            blob = "{garbage" if shard % 2 else (
                '{"format": "repro-segstore/v1", "entries": '
                '[{"key": ["rz", "g", 0.4, 0.05], "gates": 5, '
                '"error": null}]}'
            )
            (seg_dir / f"seg-{shard:02d}-bad000000000.json").write_text(blob)
        argv = ["compile", str(qasm_file), "--workflow", "gridsynth",
                "--eps", "0.05", "--cache-dir", str(store_dir)]
        with pytest.warns(UserWarning, match="unreadable"):
            assert main(argv) == 0
        first = capsys.readouterr().out
        assert _field(first, "disk store").startswith("0 exact")
        # Valid segments were published beside the bad ones: a rerun is
        # served from the store with identical results.
        with pytest.warns(UserWarning, match="unreadable"):
            assert main(argv) == 0
        second = capsys.readouterr().out
        assert _field(second, "disk store").endswith(" 0 misses")
        assert _field(first, "T count") == _field(second, "T count")


class TestVerifyCommand:
    def test_structural_ok(self, qasm_file, capsys):
        rc = main(["verify", str(qasm_file)])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("OK")
        assert "structural" in out

    def test_full_flags_unrouted_circuit(self, qasm_file, capsys):
        rc = main([
            "verify", str(qasm_file), "--target", "grid:3x3",
            "--level", "full",
        ])
        captured = capsys.readouterr()
        # cx(0,1) happens to sit on a grid edge, so this passes...
        assert rc == 0
        # ...but a basis restriction catches the rz rotations.
        rc = main([
            "verify", str(qasm_file), "--level", "full",
            "--basis", "clifford_t",
        ])
        captured = capsys.readouterr()
        assert rc == 1
        assert "FAIL" in captured.err
        assert "rz" in captured.err

    def test_compiled_output_verifies_fully(self, qasm_file, tmp_path,
                                            capsys):
        out_path = tmp_path / "routed.qasm"
        rc = main([
            "compile", str(qasm_file), "--workflow", "gridsynth",
            "--eps", "0.05", "-O", "3", "--target", "grid:2x3",
            "--validate", "full", "--output", str(out_path),
        ])
        assert rc == 0
        capsys.readouterr()
        rc = main([
            "verify", str(out_path), "--target", "grid:2x3",
            "--level", "full", "--basis", "clifford_t",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "basis[clifford_t]" in out and "connectivity" in out

    def test_malformed_qasm_connectivity_violation(self, tmp_path, capsys):
        bad = tmp_path / "bad.qasm"
        bad.write_text(
            "OPENQASM 2.0;\n"
            'include "qelib1.inc";\n'
            "qreg q[4];\n"
            "cx q[0],q[3];\n"
        )
        rc = main([
            "verify", str(bad), "--target", "grid:2x2", "--level", "full",
        ])
        err = capsys.readouterr().err
        assert rc == 1
        assert "connectivity" in err


class TestAtomicOutputs:
    def test_compile_output_write_is_atomic(self, qasm_file, tmp_path,
                                            capsys, monkeypatch):
        import os

        out_path = tmp_path / "compiled.qasm"
        out_path.write_text("// precious previous result\n")

        def boom(src, dst):
            raise OSError("no space left on device")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            main([
                "compile", str(qasm_file), "--workflow", "gridsynth",
                "--eps", "0.05", "--output", str(out_path),
            ])
        monkeypatch.undo()
        # The interrupted write left the previous file untouched and
        # cleaned up its temp file.
        assert out_path.read_text() == "// precious previous result\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "compiled.qasm", "fixture.qasm",
        ]


class TestCompileCacheDir:
    def test_compile_attaches_store(self, qasm_file, tmp_path, capsys):
        store_dir = tmp_path / "store"
        argv = ["compile", str(qasm_file), "--workflow", "gridsynth",
                "--eps", "0.05", "--cache-dir", str(store_dir)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        line = _field(out, "disk store")
        assert line.endswith("2 misses")  # cold: both rotations computed
        assert main(argv) == 0  # fresh process, warm segments
        out2 = capsys.readouterr().out
        assert _field(out2, "disk store").startswith("2 exact")


class TestWarmCache:
    def test_warm_cache_command(self, tmp_path, capsys):
        store_dir = tmp_path / "wc"
        rc = main(["warm-cache", "--cache-dir", str(store_dir),
                   "--angles", "12", "--eps", "0.05", "--workers", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "warmed 8 of 8" in out
        assert [p.name for p in store_dir.iterdir()] == ["segments"]


class TestCompileBatch:
    def _write_fixtures(self, tmp_path, n):
        paths = []
        for i in range(n):
            path = tmp_path / f"circ{i}.qasm"
            path.write_text(_FIXTURE.replace("0.4", f"0.{4 + i}"))
            paths.append(str(path))
        return paths

    def test_batch_parallel_with_cache(self, tmp_path, capsys):
        paths = self._write_fixtures(tmp_path, 3)
        store_dir = tmp_path / "store"
        out_dir = tmp_path / "out"
        rc = main([
            "compile-batch", *paths, "--workflow", "gridsynth",
            "--eps", "0.05", "--jobs", "2",
            "--cache-dir", str(store_dir), "--output-dir", str(out_dir),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert int(_field(out, "circuits compiled")) == 3
        assert int(_field(out, "total T count")) > 0
        for path in paths:
            assert path in out
        compiled = list(out_dir.glob("*_compiled.qasm"))
        assert len(compiled) == 3
        for p in compiled:
            from_qasm(p.read_text())  # parses cleanly
        assert list((store_dir / "segments").glob("seg-*.json"))

        # Second run is fully warm: every rotation comes from the store.
        rc = main([
            "compile-batch", *paths, "--workflow", "gridsynth",
            "--eps", "0.05", "--cache-dir", str(store_dir),
        ])
        out2 = capsys.readouterr().out
        assert rc == 0
        assert _field(out2, "disk store").endswith(" 0 misses")
        assert int(_field(out2, "disk store").partition(" exact")[0]) > 0

    def test_batch_process_workers_with_store(self, tmp_path, capsys):
        paths = self._write_fixtures(tmp_path, 3)
        store_dir = tmp_path / "store"
        rc = main([
            "compile-batch", *paths, "--workflow", "gridsynth",
            "--eps", "0.05", "--workers", "2",
            "--cache-dir", str(store_dir),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert int(_field(out, "circuits compiled")) == 3
        exact = _field(out, "disk store").partition(" exact")[0]
        assert int(exact) == 0  # cold store on the first run
        # Workers published their results as segments.
        assert list((store_dir / "segments").glob("seg-*.json"))

        # A second serial run over the same store is served from it.
        rc = main([
            "compile-batch", *paths, "--workflow", "gridsynth",
            "--eps", "0.05", "--cache-dir", str(store_dir),
        ])
        out2 = capsys.readouterr().out
        assert rc == 0
        line = _field(out2, "disk store")
        assert int(line.split(" exact")[0]) > 0
        assert "0 misses" in line

    def test_batch_rejects_bad_workers(self, tmp_path, capsys):
        paths = self._write_fixtures(tmp_path, 2)
        with pytest.raises(SystemExit):
            main(["compile-batch", *paths, "--workers", "lots"])

    def test_batch_serial_matches_parallel(self, tmp_path, capsys):
        paths = self._write_fixtures(tmp_path, 2)
        assert main(["compile-batch", *paths, "--workflow", "gridsynth",
                     "--eps", "0.05", "--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(["compile-batch", *paths, "--workflow", "gridsynth",
                     "--eps", "0.05", "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        # Timing and hit/miss accounting legitimately differ between the
        # two runs; the compiled-circuit lines must not.
        strip = lambda s: [ln for ln in s.splitlines()
                           if not ln.startswith(("wall time", "cache "))]
        assert strip(serial) == strip(parallel)


class TestSimulate:
    def test_noiseless_fidelity_is_one(self, qasm_file, capsys):
        rc = main(["simulate", str(qasm_file)])
        out = capsys.readouterr().out
        assert rc == 0
        assert float(_field(out, "fidelity")) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("backend", ["density", "statevector", "mps"])
    def test_noisy_backends(self, qasm_file, backend, capsys):
        rc = main([
            "simulate", str(qasm_file), "--noise-rate", "0.01",
            "--sim-backend", backend, "--trajectories", "50",
            "--seed", "3",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert _field(out, "backend") == backend
        fid = float(_field(out, "fidelity"))
        assert 0.0 <= fid <= 1.0
        assert fid < 1.0 - 1e-6  # noise at 1% must be visible

    @pytest.mark.parametrize("rate", ["-0.01", "nan"])
    def test_rejects_negative_or_nan_noise_rate(self, qasm_file, rate, capsys):
        # Both used to print a noiseless fidelity of 1.
        with pytest.raises(SystemExit) as exc:
            main(["simulate", str(qasm_file), f"--noise-rate={rate}"])
        assert exc.value.code == 2
        assert "noise rate must be a non-negative number" in (
            capsys.readouterr().err
        )

    def test_auto_dispatches_small_noisy_to_density(self, qasm_file, capsys):
        rc = main(["simulate", str(qasm_file), "--noise-rate", "0.001"])
        out = capsys.readouterr().out
        assert rc == 0
        assert _field(out, "backend") == "density"


class TestOtherCommands:
    def test_catalog(self, capsys):
        rc = main(["catalog", "--budget", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        m = re.search(r"T <= 3: (\d+)", out)
        assert m and int(m.group(1)) == 24 * (3 * 2**3 - 2)

    def test_estimate(self, qasm_file, capsys):
        rc = main(["estimate", str(qasm_file)])
        assert rc == 0
        assert capsys.readouterr().out.strip()

    def test_unknown_command_exits_nonzero(self):
        with pytest.raises(SystemExit) as exc:
            main(["not-a-command"])
        assert exc.value.code != 0


class TestSchedule:
    def test_schedule_plain(self, qasm_file, capsys):
        rc = main(["schedule", str(qasm_file)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "ASAP schedule" in out
        assert "makespan" in out
        assert "q0" in out and "q1" in out

    def test_schedule_routed_with_esp_and_timeline(self, tmp_path, capsys):
        import dataclasses

        from repro.target import Target

        target = dataclasses.replace(
            Target.line(2),
            gate_errors={"cx": 1e-2, "h": 1e-3},
            gate_durations={"cx": 3.0},
            idle_error_rate=1e-4,
        )
        tpath = tmp_path / "cal.json"
        target.save(str(tpath))
        qasm = tmp_path / "c.qasm"
        qasm.write_text(_FIXTURE)
        rc = main([
            "schedule", str(qasm), "--target", str(tpath), "--route",
            "--method", "alap", "--timeline", "--width", "24",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "ALAP schedule" in out
        assert "routed onto" in out
        assert "ESP" in out
        assert "one column" in out  # the rendered timeline axis

    def test_compile_objective_esp_reports_prediction(
        self, tmp_path, capsys
    ):
        import dataclasses

        from repro.target import Target

        target = dataclasses.replace(
            Target.line(2),
            gate_errors={"cx": 1e-2, "t": 1e-3, "h": 1e-4},
            idle_error_rate=1e-5,
        )
        tpath = tmp_path / "cal.json"
        target.save(str(tpath))
        qasm = tmp_path / "c.qasm"
        qasm.write_text(_FIXTURE)
        rc = main([
            "compile", str(qasm), "--workflow", "gridsynth",
            "--eps", "0.05", "-O", "2", "--target", str(tpath),
            "--objective", "esp",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert _field(out, "objective") == "esp"
        esp = float(_field(out, "predicted ESP"))
        assert 0.0 < esp < 1.0
        assert float(_field(out, "schedule makespan")) > 0

    def test_compile_eps_budget_reports_allocation(self, tmp_path, capsys):
        qasm = tmp_path / "c.qasm"
        qasm.write_text(_FIXTURE)
        rc = main([
            "compile", str(qasm), "--workflow", "gridsynth",
            "-O", "2", "--eps-budget", "0.04",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "eps budget allocation" in out
        assert float(_field(out, "synthesis error bound")) <= 0.04 + 1e-9
