"""The standing perf harness: timing discipline, schema, CLI plumbing."""

import json

import pytest

from repro.bench import (
    AREAS,
    SCHEMA_VERSION,
    BenchSpec,
    compare_reports,
    report_dict,
    run_area,
    run_spec,
    run_specs,
    validate_report,
    write_report,
)


def _counting_spec(name="demo", extra=None):
    calls = []

    def setup():
        def run():
            calls.append(1)
            return {"calls": len(calls)}

        return run

    return BenchSpec(
        name=name, params={"k": 1}, setup=setup, extra=extra or {}
    ), calls


class TestHarness:
    def test_warmup_and_repeats_discipline(self):
        spec, calls = _counting_spec()
        result = run_spec(spec, warmup=2, repeats=3)
        assert len(calls) == 5  # 2 warmup + 3 timed
        assert len(result.times_s) == 3
        assert result.extra["calls"] == 5  # last repeat's dict wins

    def test_median_and_spread_fields(self):
        spec, _ = _counting_spec()
        entry = run_spec(spec, warmup=0, repeats=5).as_dict()
        assert entry["min_s"] <= entry["median_s"] <= entry["max_s"]
        assert entry["stdev_s"] >= 0.0
        assert entry["repeats"] == 5

    def test_repeats_must_be_positive(self):
        spec, _ = _counting_spec()
        with pytest.raises(ValueError):
            run_spec(spec, warmup=0, repeats=0)

    def test_interleaved_rounds_alternate_order(self):
        import gc

        from repro.bench.harness import run_interleaved

        log = []

        def logging_spec(name):
            def setup():
                log.append(f"setup {name}")
                # Timed calls run with the garbage collector parked.
                return lambda: log.append(name if gc.isenabled() else name.upper())

            return BenchSpec(name=name, params={}, setup=setup)

        results = run_interleaved(
            [logging_spec("a"), logging_spec("b")], warmup=1, repeats=3
        )
        assert gc.isenabled()
        assert log == [
            "setup a", "setup b",
            "a", "b",  # warmup
            "A", "B", "B", "A", "A", "B",  # timed rounds
        ]
        assert [r.name for r in results] == ["a", "b"]
        assert [len(r.times_s) for r in results] == [3, 3]

    def test_report_schema_roundtrip(self, tmp_path):
        spec, _ = _counting_spec()
        results = run_specs([spec], warmup=0, repeats=1)
        report = report_dict("routing", results, True, 0, 1)
        assert report["schema"] == SCHEMA_VERSION
        path = tmp_path / "BENCH_routing.json"
        write_report(str(path), report)
        on_disk = json.loads(path.read_text())
        validate_report(on_disk)
        assert on_disk["benchmarks"][0]["name"] == "demo"
        # Atomic write leaves no tmp litter behind.
        assert [p.name for p in tmp_path.iterdir()] == [
            "BENCH_routing.json"
        ]

    @pytest.mark.parametrize(
        "mutation",
        [
            lambda r: r.pop("schema"),
            lambda r: r.update(schema="repro-bench/v0"),
            lambda r: r.pop("benchmarks"),
            lambda r: r.update(benchmarks=[]),
            lambda r: r["benchmarks"][0].pop("median_s"),
            lambda r: r["benchmarks"][0].update(median_s=-1.0),
        ],
    )
    def test_validate_rejects_malformed(self, mutation):
        spec, _ = _counting_spec()
        report = report_dict(
            "sim", run_specs([spec], 0, 1), False, 0, 1
        )
        mutation(report)
        with pytest.raises(ValueError):
            validate_report(report)

    def test_unknown_area_rejected(self):
        with pytest.raises(ValueError, match="unknown bench area"):
            run_area("networking")


class TestQuickSuites:
    """--quick mode runs every area end to end with a valid report."""

    @pytest.mark.parametrize("area", AREAS)
    def test_area_produces_valid_report(self, area, tmp_path):
        report = run_area(area, quick=True, out_dir=str(tmp_path))
        validate_report(report)
        assert report["area"] == area
        assert report["quick"] is True
        on_disk = json.loads(
            (tmp_path / f"BENCH_{area}.json").read_text()
        )
        validate_report(on_disk)
        names = [b["name"] for b in on_disk["benchmarks"]]
        assert len(names) == len(set(names))

    def test_routing_quick_carries_reference_baseline(self):
        report = run_area("routing", quick=True, out_dir=None)
        names = {b["name"] for b in report["benchmarks"]}
        assert "route_dag/grid/20q/reference-scorer" in names
        vec = next(
            b
            for b in report["benchmarks"]
            if b["name"] == "route_dag/grid/20q"
        )
        assert "speedup_vs_reference" not in vec["extra"] or (
            vec["extra"]["speedup_vs_reference"] > 0
        )


def _report(area="sim", quick=True, medians=None):
    benchmarks = []
    for name, median in (medians or {"demo": 0.1}).items():
        spec, _ = _counting_spec(name=name)
        entry = run_spec(spec, warmup=0, repeats=1).as_dict()
        entry["median_s"] = median
        entry["min_s"] = median * 0.9
        entry["max_s"] = median * 1.1
        benchmarks.append(entry)
    report = report_dict(area, [], quick, 0, 1)
    report["benchmarks"] = benchmarks
    return report


class TestCompareReports:
    def test_within_spread_is_ok(self):
        committed = _report(medians={"a": 0.10})
        fresh = _report(medians={"a": 0.12})
        rows = compare_reports(committed, fresh, tolerance=0.25)
        assert rows == [
            {
                "name": "a",
                "committed_median_s": 0.10,
                "committed_max_s": committed["benchmarks"][0]["max_s"],
                "fresh_median_s": 0.12,
                "ratio": pytest.approx(1.2),
                "committed_speedup": None,
                "fresh_speedup": None,
                "regressed": False,
            }
        ]

    def test_speedup_extras_surfaced(self):
        committed = _report(medians={"a": 0.10})
        committed["benchmarks"][0]["extra"]["speedup_vs_reference"] = 5.0
        fresh = _report(medians={"a": 0.12})
        fresh["benchmarks"][0]["extra"]["speedup_vs_reference"] = 4.4
        (row,) = compare_reports(committed, fresh)
        assert row["committed_speedup"] == 5.0
        assert row["fresh_speedup"] == 4.4

    def test_regression_beyond_spread_flagged(self):
        # Threshold is max(committed max, median) * (1 + tolerance):
        # 0.11 * 1.25 = 0.1375, so 0.14 regresses and 0.13 does not.
        committed = _report(medians={"a": 0.10})
        ok = compare_reports(
            committed, _report(medians={"a": 0.13}), tolerance=0.25
        )
        bad = compare_reports(
            committed, _report(medians={"a": 0.14}), tolerance=0.25
        )
        assert ok[0]["regressed"] is False
        assert bad[0]["regressed"] is True

    def test_missing_benchmark_regresses(self):
        committed = _report(medians={"a": 0.1, "b": 0.1})
        fresh = _report(medians={"a": 0.1})
        rows = {r["name"]: r for r in compare_reports(committed, fresh)}
        assert rows["b"]["fresh_median_s"] is None
        assert rows["b"]["regressed"] is True

    def test_area_mismatch_rejected(self):
        with pytest.raises(ValueError, match="area"):
            compare_reports(_report(area="sim"), _report(area="routing"))

    def test_quick_mismatch_rejected(self):
        with pytest.raises(ValueError, match="quick"):
            compare_reports(_report(quick=True), _report(quick=False))

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError, match="tolerance"):
            compare_reports(_report(), _report(), tolerance=-0.1)


class TestCompareCLI:
    def _committed_report(self, tmp_path):
        report = run_area("sim", quick=True, out_dir=str(tmp_path))
        return tmp_path / "BENCH_sim.json", report

    def test_compare_clean_run_passes(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        path, _ = self._committed_report(tmp_path)
        assert main(["--compare", str(path)]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_compare_flags_tampered_baseline(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        path, report = self._committed_report(tmp_path)
        # Shrink the committed timings to absurdly fast values so the
        # fresh run necessarily regresses past any real spread.
        for entry in report["benchmarks"]:
            entry["median_s"] = 1e-9
            entry["min_s"] = 1e-9
            entry["max_s"] = 1e-9
        path.write_text(json.dumps(report))
        assert main(["--compare", str(path)]) == 2
        assert "REGRESSED" in capsys.readouterr().out


class TestCLI:
    def test_module_quick_no_write(self, capsys):
        from repro.bench.__main__ import main

        assert main(["--area", "sim", "--quick", "--no-write"]) == 0
        out = capsys.readouterr().out
        assert "BENCH_sim" not in out
        assert "median" in out

    def test_cli_bench_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(
            [
                "bench",
                "--area",
                "sim",
                "--quick",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert rc == 0
        report = json.loads((tmp_path / "BENCH_sim.json").read_text())
        validate_report(report)


class TestFailAreaGate:
    def _tampered_report(self, tmp_path):
        report = run_area("sim", quick=True, out_dir=str(tmp_path))
        for entry in report["benchmarks"]:
            entry["median_s"] = 1e-9
            entry["min_s"] = 1e-9
            entry["max_s"] = 1e-9
        path = tmp_path / "BENCH_sim.json"
        path.write_text(json.dumps(report))
        return path

    def test_gated_area_fails_hard(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        path = self._tampered_report(tmp_path)
        rc = main(["--compare", str(path), "--fail-area", "sim"])
        assert rc == 2
        assert "FAILED" in capsys.readouterr().out

    def test_ungated_area_only_warns(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        path = self._tampered_report(tmp_path)
        rc = main(["--compare", str(path), "--fail-area", "passes"])
        assert rc == 0
        assert "advisory" in capsys.readouterr().out

    def test_clean_gated_run_passes(self, tmp_path, monkeypatch, capsys):
        from repro.bench import __main__ as cli

        report = run_area("sim", quick=True, out_dir=str(tmp_path))
        path = tmp_path / "BENCH_sim.json"
        # Serve the committed report back as the fresh run: identical
        # timings are regression-free by construction, where a second
        # real timed run flakes under parallel-test load.
        monkeypatch.setattr(cli, "run_area", lambda *a, **k: report)
        rc = cli.main(["--compare", str(path), "--fail-area", "sim"])
        assert rc == 0
        assert "no regressions" in capsys.readouterr().out

    def test_fail_ratio_loosens_gate(self, tmp_path):
        from repro.bench.__main__ import main

        path = self._tampered_report(tmp_path)
        # An absurdly loose ratio keeps even the tampered baseline ok.
        rc = main(["--compare", str(path), "--fail-area", "sim",
                   "--fail-ratio", "1e12"])
        assert rc == 0

    def test_unknown_fail_area_rejected(self):
        from repro.bench.__main__ import main

        with pytest.raises(SystemExit):
            main(["--compare", "x.json", "--fail-area", "nonsense"])


class TestPassesPairing:
    def test_speedup_is_median_of_round_ratios(self):
        from repro.bench import passes_suite
        from repro.bench.harness import BenchResult

        def result(name, times):
            return BenchResult(name, {}, 0, len(times), times, {})

        # Round ratios 2, 6, 2 have median 2; the ratio of the medians
        # would be 0.3 / 0.1 = 3.
        kernel = result("dag/x/24q", [0.1, 0.05, 0.2])
        ref = result("dag/x/24q/reference", [0.2, 0.3, 0.4])
        passes_suite.finalize([kernel, ref])
        assert kernel.extra["speedup_vs_reference"] == 2.0
        assert "speedup_vs_reference" not in ref.extra

    def test_run_specs_pairs_each_kernel_with_its_twin(self):
        from repro.bench import passes_suite

        names = [s.name for s in passes_suite.specs(quick=True)]
        assert names[1::2] == [f"{n}/reference" for n in names[::2]]
        calls = []

        def spec(name):
            def run():
                calls.append(name)

            return BenchSpec(name=name, params={}, setup=lambda: run)

        results = passes_suite.run_specs(
            [spec("x"), spec("x/reference")], warmup=0, repeats=2
        )
        assert [r.name for r in results] == ["x", "x/reference"]
        assert calls == ["x", "x/reference", "x/reference", "x"]


class TestSpeedupMetricGate:
    """--fail-metric speedup gates on the machine-relative ratio, so a
    uniformly slower runner cannot fail against medians recorded on a
    faster machine (the fresh runs are stubbed: the gate logic, not the
    timer, is under test)."""

    def _paired(self, speedup, median):
        report = _report(
            area="passes",
            medians={
                "dag/x/96q": median,
                "dag/x/96q/reference": median * speedup,
            },
        )
        for entry in report["benchmarks"]:
            if entry["name"] == "dag/x/96q":
                entry["extra"]["speedup_vs_reference"] = speedup
        return report

    def _gate(self, tmp_path, monkeypatch, committed, fresh, *extra_args):
        from repro.bench import __main__ as cli

        path = tmp_path / "BENCH_passes.json"
        path.write_text(json.dumps(committed))
        monkeypatch.setattr(cli, "run_area", lambda *a, **k: fresh)
        return cli.main(
            ["--compare", str(path), "--fail-area", "passes",
             "--fail-metric", "speedup", *extra_args]
        )

    def test_slower_machine_same_speedup_passes(
        self, tmp_path, monkeypatch, capsys
    ):
        # 4x slower runner: every absolute median blows past any sane
        # wall-clock multiple, but the relative speedup is intact.
        rc = self._gate(
            tmp_path, monkeypatch,
            self._paired(5.0, 0.1), self._paired(5.0, 0.4),
        )
        assert rc == 0
        assert "FAILED" not in capsys.readouterr().out

    def test_speedup_drop_past_ratio_fails(
        self, tmp_path, monkeypatch, capsys
    ):
        # 5.0 -> 3.0 is a 1.67x relative slowdown, past the 1.3x gate.
        rc = self._gate(
            tmp_path, monkeypatch,
            self._paired(5.0, 0.1), self._paired(3.0, 0.1),
        )
        assert rc == 2
        assert "FAILED" in capsys.readouterr().out

    def test_speedup_drop_within_ratio_passes(
        self, tmp_path, monkeypatch
    ):
        # 5.0 -> 4.2 stays within the default 1.3x allowance.
        rc = self._gate(
            tmp_path, monkeypatch,
            self._paired(5.0, 0.1), self._paired(4.2, 0.1),
        )
        assert rc == 0

    def test_missing_fresh_speedup_fails(self, tmp_path, monkeypatch):
        fresh = self._paired(5.0, 0.1)
        for entry in fresh["benchmarks"]:
            entry["extra"].pop("speedup_vs_reference", None)
        rc = self._gate(
            tmp_path, monkeypatch, self._paired(5.0, 0.1), fresh
        )
        assert rc == 2
