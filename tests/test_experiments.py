"""Integration tests of the experiment harness (scaled-down runs)."""

import math

import numpy as np
import pytest

from repro.bench_circuits import benchmark_suite
from repro.experiments.ir_comparison import figure6_counts, run_ir_comparison
from repro.experiments.reporting import format_table, geomean, ratio_summary
from repro.experiments.rq1_random_unitaries import run_rq1, summarize
from repro.experiments.rq2_tradeoff import run_rq2
from repro.experiments.rq3_circuits import (
    category_summary,
    figure2_summary,
    run_figure12,
    run_rq3,
)
from repro.experiments import rq1_random_unitaries
from repro.experiments.rq4_fidelity import RATE_TO_EPS, run_rq4
from repro.experiments.rq5_postopt import run_rq5
from repro.experiments.workflows import matched_thresholds
from repro.pipeline import compile_circuit
from repro.sim.evaluate import evaluate_fidelity
from repro.synthesis import GateSequence


@pytest.fixture(scope="module")
def small_cases():
    return benchmark_suite(limit=4, max_qubits=6)


class TestReporting:
    def test_geomean(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)
        assert math.isnan(geomean([]))

    def test_ratio_summary(self):
        s = ratio_summary([1.0, 2.0, 4.0])
        assert s["min"] == 1.0 and s["max"] == 4.0
        assert s["geomean"] == pytest.approx(2.0)

    def test_format_table(self):
        out = format_table(["a", "bb"], [[1, 2.5], [3, 0.001]])
        assert "a" in out and "bb" in out
        assert len(out.splitlines()) == 4


class TestWorkflows:
    @pytest.mark.slow
    def test_flows_preserve_circuit_semantics(self, small_cases):
        case = small_cases[0]
        u3c, rzc, eps_t, eps_g = matched_thresholds(case.circuit, 0.01)
        tra = compile_circuit(u3c, "trasyn", eps_t, seed=0,
                              pre_transpiled=True)
        grid = compile_circuit(rzc, "gridsynth", eps_g, seed=0,
                               pre_transpiled=True)
        psi = case.circuit.statevector()
        for flow in (tra, grid):
            psi_s = flow.circuit.statevector()
            infid = 1.0 - abs(np.vdot(psi, psi_s)) ** 2
            assert infid < 0.01
            # Output really is Clifford+T.
            assert all(
                g.name in ("h", "s", "sdg", "t", "tdg", "x", "y", "z",
                           "cx", "cz", "swap", "i")
                for g in flow.circuit.gates
            )

    def test_matched_thresholds_scaling(self, small_cases):
        case = small_cases[0]
        _, _, eps_t, eps_g = matched_thresholds(case.circuit, 0.007)
        assert eps_t == 0.007
        assert 0 < eps_g <= 0.007 + 1e-12


class TestRQ1:
    def test_small_run(self):
        res = run_rq1(n_unitaries=2, thresholds=(0.1, 0.01),
                      include_annealing=True, annealing_time_limit=0.5)
        tra = res.of("trasyn", 0.1)
        assert len(tra) == 2
        assert all(p.error < 0.1 for p in tra)
        grid = res.of("gridsynth", 0.01)
        assert all(p.error <= 0.01 for p in grid)
        rows = summarize(res)
        assert len(rows) == 9  # 3 methods x 3 thresholds

    def test_gridsynth_uses_more_t(self):
        res = run_rq1(n_unitaries=3, thresholds=(0.01,),
                      include_annealing=False)
        tra_t = np.mean([p.t_count for p in res.of("trasyn", 0.01)])
        grid_t = np.mean([p.t_count for p in res.of("gridsynth", 0.01)])
        assert grid_t > 1.5 * tra_t

    def test_trasyn_stream_independent_of_annealing(self, monkeypatch):
        # The annealer is bounded by wall clock, so how many values it
        # draws depends on CPU speed; no trasyn call may see that.
        class Report:
            succeeded = False
            elapsed = 0.0

        word = GateSequence(("H",), error=0.0)
        monkeypatch.setattr(rq1_random_unitaries, "get_table",
                            lambda budget: None)
        monkeypatch.setattr(rq1_random_unitaries, "gridsynth_u3",
                            lambda u, eps: word)

        def states_seen(n_draws):
            seen = []

            def fake_trasyn(u, error_threshold, rng):
                seen.append(rng.bit_generator.state)
                return word

            def fake_anneal(u, eps, rng, time_limit):
                rng.random(n_draws)
                return Report()

            monkeypatch.setattr(rq1_random_unitaries, "trasyn", fake_trasyn)
            monkeypatch.setattr(rq1_random_unitaries, "anneal_unitary",
                                fake_anneal)
            run_rq1(n_unitaries=3, seed=2, thresholds=(0.1, 0.01))
            return seen

        baseline = states_seen(0)
        assert len(baseline) == 6
        assert states_seen(7) == baseline
        assert states_seen(1000) == baseline


class TestRQ2:
    def test_tradeoff_shape(self):
        res = run_rq2(n_angles=4, thresholds=(1e-1, 1e-2, 1e-3),
                      logical_rates=(1e-6, 1e-3))
        # At high logical rate the loosest threshold wins; at low logical
        # rate a tighter threshold wins.
        opt = res.optimal_thresholds()
        assert opt[1e-3] >= opt[1e-6]
        assert res.infidelity.shape == (3, 2)


class TestIRComparison:
    def test_ratios_at_least_one(self, small_cases):
        results = run_ir_comparison(small_cases)
        for r in results:
            assert r.ratio >= 1.0 - 1e-9

    def test_figure6_tally_counts_all(self, small_cases):
        results = run_ir_comparison(small_cases)
        tally = figure6_counts(results)
        assert sum(tally.values()) >= len(results)


class TestRunnerContracts:
    def test_rq3_independent_of_case_order(self, small_cases):
        def gate_lists(cases):
            return {
                r.name: (r.trasyn_flow.circuit.gates,
                         r.gridsynth_flow.circuit.gates)
                for r in run_rq3(cases, base_eps=0.1, fidelity_max_qubits=0)
            }

        cases = small_cases[:3]
        assert gate_lists(cases[::-1]) == gate_lists(cases)

    def test_rq3_shared_reference_matches_per_flow_scoring(self, small_cases):
        # One reference state per case scores each flow exactly as a
        # reference simulated for that flow alone.
        for r, case in zip(
            run_rq3(small_cases[:2], base_eps=0.1, fidelity_max_qubits=6),
            small_cases,
        ):
            for flow, infidelity in (
                (r.trasyn_flow, r.trasyn_infidelity),
                (r.gridsynth_flow, r.gridsynth_infidelity),
            ):
                alone = evaluate_fidelity(flow.circuit, reference=case.circuit)
                assert infidelity.hex() == alone.infidelity.hex()

    def test_rq4_rejects_unknown_rate(self, small_cases):
        with pytest.raises(ValueError, match="known rates") as err:
            run_rq4(small_cases[:1], logical_rates=(1e-4, 1e-3))
        for rate in RATE_TO_EPS:
            assert str(rate) in str(err.value)


@pytest.mark.slow
class TestRQ3toRQ5:
    @pytest.fixture(scope="class")
    def rq3_results(self, small_cases):
        return run_rq3(small_cases[:3], base_eps=0.015, fidelity_max_qubits=6)

    def test_rq3_ratios(self, rq3_results):
        assert all(r.t_ratio > 0.5 for r in rq3_results)
        summary = category_summary(rq3_results)
        assert "all" in summary
        fig2 = figure2_summary(rq3_results)
        assert fig2["t_ratio_geomean"] > 0.8

    def test_rq5_postopt(self, rq3_results):
        post = run_rq5(rq3_results)
        assert len(post) == len(rq3_results)
        for p in post:
            # Post-optimization cannot flip the T advantage materially.
            assert p.t_ratio_after > 0.5 * p.t_ratio_before

    def test_figure12(self, small_cases):
        res = run_figure12(small_cases[:2], base_eps=0.02)
        assert all(r.rotation_ratio >= 0.9 for r in res)

    def test_rq4_noise(self, small_cases):
        res = run_rq4(small_cases[:2], logical_rates=(1e-4,), max_qubits=6)
        assert len(res) == 2
        for r in res:
            assert 0 <= r.trasyn_infidelity <= 1
            assert 0 <= r.gridsynth_infidelity <= 1


class TestRQ7ScheduleESP:
    """Acceptance: predicted ESP vs simulated fidelity (ISSUE 5)."""

    @pytest.fixture(scope="class")
    def rq7_results(self):
        from repro.bench_circuits import BenchmarkCase
        from repro.bench_circuits import ft_algorithms as ft
        from repro.experiments.rq7_schedule import run_rq7

        cases = [BenchmarkCase("qft_n4", "ft_algorithm", ft.qft(4))]
        # gridsynth keeps the per-variant synthesis cheap; the ESP/
        # fidelity relation under test is workflow-independent.
        return run_rq7(
            cases, topologies=("line", "grid"), workflow="gridsynth",
            trajectories=200,
        )

    def test_esp_within_sampling_error_of_fidelity(self, rq7_results):
        # ESP is the no-error-branch probability: simulated fidelity
        # must sit at or above it (within Monte-Carlo sampling error),
        # and the gap is bounded by the error-branch weight.
        for r in rq7_results:
            slack = 3 * (r.std_error or 0.0)
            assert r.fidelity >= r.esp_objective - slack, (r.topology, r)
            assert r.fidelity - r.esp_objective <= (1 - r.esp_objective), r

    def test_esp_prediction_is_tight(self, rq7_results):
        # The residue stays well under the total error weight: the
        # prediction is a usable objective, not just a bound.
        for r in rq7_results:
            assert r.fidelity - r.esp_objective <= 0.6 * (
                1 - r.esp_objective
            ) + 3 * (r.std_error or 0.0), (r.topology, r)

    def test_cost_aware_never_worse_than_baseline(self, rq7_results):
        # The esp-objective grid always contains the error-agnostic
        # PR-4 baseline variant, so it can never lose to it.
        for r in rq7_results:
            assert r.esp_objective >= r.esp_baseline - 1e-12, r

    def test_rows_render(self, rq7_results):
        from repro.experiments.reporting import esp_table
        from repro.experiments.rq7_schedule import esp_rows

        text = esp_table(esp_rows(rq7_results))
        assert "esp(esp)" in text and "fidelity" in text
