"""Tests for the scheduler subsystem, ESP cost model, and eps budgets."""

import dataclasses
import math

import numpy as np
import pytest

from repro.circuits import Circuit, CircuitDAG, depth
from repro.pipeline import (
    SynthesisCache,
    compile_circuit,
    synthesize_lowered,
)
from repro.schedule import (
    DEFAULT_DURATION_1Q,
    DEFAULT_DURATION_2Q,
    duration_of,
    idle_marker,
    insert_idle_markers,
    node_slacks,
    schedule_circuit,
    with_idle_noise,
)
from repro.sim import NoiseModel, evaluate_fidelity
from repro.sim.noise import is_idle_marker
from repro.synthesis import (
    allocate_eps_budget,
    eps_schedule_total,
    flat_eps_schedule,
    rotation_criticalities,
)
from repro.target import Target, estimate_esp, gate_error, gate_success
from repro.target.cost import EspEstimate


def ghz(n: int) -> Circuit:
    c = Circuit(n, name=f"ghz_{n}")
    c.h(0)
    for q in range(n - 1):
        c.cx(q, q + 1)
    return c


def calibrated_line(n: int = 4) -> Target:
    return dataclasses.replace(
        Target.line(n),
        gate_errors={"cx": 1e-3, "t": 2e-4, "tdg": 2e-4, "h": 5e-5,
                     "swap": 3e-3, "s": 5e-5, "sdg": 5e-5},
        gate_durations={"cx": 3.0, "swap": 9.0, "t": 4.0, "tdg": 4.0},
        edge_errors={(q, q + 1): 1e-3 * (q + 1) for q in range(n - 1)},
        idle_error_rate=1e-4,
    )


class TestDurations:
    def test_arity_defaults(self):
        from repro.circuits.circuit import Gate

        assert duration_of(Gate("h", (0,))) == DEFAULT_DURATION_1Q
        assert duration_of(Gate("cx", (0, 1))) == DEFAULT_DURATION_2Q
        # SWAP defaults to its 3-CX decomposition time.
        assert duration_of(Gate("swap", (0, 1))) == 3 * DEFAULT_DURATION_2Q

    def test_table_overrides_and_canonical_names(self):
        from repro.circuits.circuit import Gate

        assert duration_of(Gate("t", (0,)), {"t": 7.0}) == 7.0
        # Idle markers carry their duration as the parameter.
        assert duration_of(idle_marker(0, 2.5)) == 2.5


class TestSchedule:
    def test_serial_wire_is_sum_of_durations(self):
        c = Circuit(1)
        c.h(0).t(0).h(0)
        s = schedule_circuit(c)
        assert s.makespan == 3 * DEFAULT_DURATION_1Q
        assert s.idle_time(0) == 0.0
        assert s.utilization == 1.0

    def test_parallel_wires_overlap(self):
        c = Circuit(2)
        c.h(0).h(1)
        s = schedule_circuit(c)
        assert s.makespan == DEFAULT_DURATION_1Q
        assert s.total_idle == 0.0

    def test_asap_respects_dependencies(self):
        c = ghz(3)
        s = schedule_circuit(c)
        spans = sorted(s.spans, key=lambda sp: sp.node_id)
        # cx(0,1) waits for h(0); cx(1,2) waits for cx(0,1).
        assert spans[1].start >= spans[0].end - 1e-12
        assert spans[2].start >= spans[1].end - 1e-12

    def test_alap_same_makespan_later_starts(self):
        c = ghz(4)
        asap = schedule_circuit(c)
        alap = schedule_circuit(c, method="alap")
        assert asap.makespan == pytest.approx(alap.makespan)
        for sp in asap.spans:
            assert alap.span(sp.node_id).start >= sp.start - 1e-12
        # Idle accounting is schedule-discipline invariant.
        assert asap.idle_slack() == pytest.approx(alap.idle_slack())

    def test_makespan_is_critical_path_time(self):
        c = ghz(5)
        s = schedule_circuit(c)
        # h + 4 serial cx on default durations.
        assert s.makespan == DEFAULT_DURATION_1Q + 4 * DEFAULT_DURATION_2Q

    def test_target_durations_change_makespan(self):
        c = ghz(3)
        t = dataclasses.replace(Target.line(3), gate_durations={"cx": 10.0})
        assert schedule_circuit(c, t).makespan == 1.0 + 20.0

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError, match="schedule method"):
            schedule_circuit(ghz(2), method="greedy")

    def test_render_smoke(self):
        text = schedule_circuit(ghz(3)).render(width=20)
        lines = text.splitlines()
        assert len(lines) == 4  # 3 qubit rows + axis
        assert all(line.startswith("q") for line in lines[:3])
        # Empty circuit renders without dividing by zero.
        assert "q0" in schedule_circuit(Circuit(1)).render(width=8)

    def test_summary_smoke(self):
        s = schedule_circuit(ghz(3))
        assert "makespan" in s.summary()


class TestSlacks:
    def test_critical_path_has_zero_slack(self):
        c = ghz(4)
        makespan, slacks = node_slacks(CircuitDAG.from_circuit(c))
        assert makespan > 0
        assert min(slacks.values()) == pytest.approx(0.0)

    def test_slack_detects_off_path_gate(self):
        c = Circuit(2)
        c.h(0).h(0).h(0).t(1)  # wire 0 is critical; t(1) has slack
        _, slacks = node_slacks(CircuitDAG.from_circuit(c))
        t_node = [i for i, s in slacks.items() if s > 0]
        assert len(t_node) == 1
        assert slacks[t_node[0]] == pytest.approx(2 * DEFAULT_DURATION_1Q)


class TestIdleMarkers:
    def test_markers_preserve_state(self):
        c = ghz(4)
        marked = insert_idle_markers(c)
        assert np.allclose(marked.statevector(), c.statevector())

    def test_marker_durations_equal_idle_slack(self):
        c = ghz(4)
        s = schedule_circuit(c)
        marked = insert_idle_markers(c, schedule=s)
        per_qubit = {q: 0.0 for q in range(4)}
        for g in marked.gates:
            if is_idle_marker(g):
                per_qubit[g.qubits[0]] += g.params[0]
        assert per_qubit == pytest.approx(s.idle_slack())

    def test_no_markers_when_no_idle(self):
        c = Circuit(2)
        c.h(0).h(1)
        assert not any(is_idle_marker(g) for g in insert_idle_markers(c).gates)

    def test_plain_i_gate_is_not_a_marker(self):
        from repro.circuits.circuit import Gate

        assert not is_idle_marker(Gate("i", (0,)))
        assert is_idle_marker(idle_marker(0, 1.0))

    def test_alap_schedule_rejected(self):
        c = ghz(3)
        with pytest.raises(ValueError, match="ASAP"):
            insert_idle_markers(
                c, schedule=schedule_circuit(c, method="alap")
            )


class TestCostModel:
    def test_gate_error_lookup_order(self):
        from repro.circuits.circuit import Gate

        t = calibrated_line(4)
        # Edge table wins for 2q gates on a listed edge.
        assert gate_error(t, Gate("cx", (0, 1))) == pytest.approx(1e-3)
        assert gate_error(t, Gate("cx", (2, 3))) == pytest.approx(3e-3)
        # 1q gates use the name table; unknown gates are free.
        assert gate_error(t, Gate("t", (0,))) == pytest.approx(2e-4)
        assert gate_error(t, Gate("x", (0,))) == 0.0
        # 2q success squares the per-qubit survival.
        assert gate_success(t, Gate("cx", (0, 1))) == pytest.approx(
            (1 - 1e-3) ** 2
        )

    def test_swap_never_inherits_cx_rate(self):
        # Regression: without a per-edge entry a swap/cz must keep its
        # *own* gate rate (the simulator injects at 3e-3, so an ESP
        # charged at the 1e-4 cx rate would exceed true fidelity).
        from repro.circuits.circuit import Gate

        t = dataclasses.replace(
            Target.line(3),
            gate_errors={"cx": 1e-4, "swap": 3e-3, "cz": 1e-2},
        )
        assert t.edge_error(0, 1) == 0.0
        assert gate_error(t, Gate("swap", (0, 1))) == pytest.approx(3e-3)
        assert gate_error(t, Gate("cz", (0, 1))) == pytest.approx(1e-2)
        assert gate_error(t, Gate("cx", (0, 1))) == pytest.approx(1e-4)
        assert t.is_calibrated
        # ...and the cost model agrees with what the noise model injects.
        nm = NoiseModel.from_target(t)
        assert nm.rate_for(Gate("swap", (0, 1))) == pytest.approx(3e-3)

    def test_makespan_defined_for_empty_schedule(self):
        # A gate-free circuit's Schedule is falsy (len 0) but real.
        res = compile_circuit(
            Circuit(2), workflow="gridsynth", target=Target.line(2),
        )
        assert res.makespan == 0.0
        assert res.esp == 1.0

    def test_esp_product_matches_hand_computation(self):
        c = Circuit(2)
        c.h(0).cx(0, 1)
        t = dataclasses.replace(
            Target.line(2),
            gate_errors={"h": 1e-2, "cx": 2e-2},
            idle_error_rate=1e-3,
        )
        est = estimate_esp(c, t)
        s = schedule_circuit(c, t)
        expected = (1 - 1e-2) * (1 - 2e-2) ** 2 * math.exp(
            -1e-3 * s.total_idle
        )
        assert isinstance(est, EspEstimate)
        assert est.esp == pytest.approx(expected)
        assert est.n_noisy_gates == 2

    def test_esp_with_markers_equals_without(self):
        c = ghz(4)
        t = calibrated_line(4)
        plain = estimate_esp(c, t)
        marked = estimate_esp(insert_idle_markers(c, t), t)
        assert marked.esp == pytest.approx(plain.esp, rel=1e-9)

    def test_uncalibrated_target_scores_one(self):
        est = estimate_esp(ghz(3), Target.line(3))
        assert est.esp == 1.0


class TestIdleNoise:
    def test_with_idle_noise_passthrough_without_rate(self):
        c = ghz(3)
        base = NoiseModel.non_pauli_gates(1e-3)
        out_c, out_n = with_idle_noise(c, Target.line(3), base)
        assert out_c is c and out_n is base

    def test_idle_rate_for_scales_with_duration(self):
        nm = NoiseModel.with_idle(None, 0.1)
        short, long_ = idle_marker(0, 1.0), idle_marker(0, 5.0)
        assert nm.rate_for(short) == pytest.approx(-math.expm1(-0.1))
        assert nm.rate_for(long_) > nm.rate_for(short)
        assert nm.noisy_qubits(short) == (0,)

    def test_with_idle_preserves_uniform_base_rate(self):
        base = NoiseModel.non_pauli_gates(1e-3)
        nm = NoiseModel.with_idle(base, 0.5)
        from repro.circuits.circuit import Gate

        assert nm.rate_for(Gate("h", (0,))) == pytest.approx(1e-3)
        assert nm.applies_to(idle_marker(0, 1.0))

    def test_from_target_uses_edge_rates(self):
        from repro.circuits.circuit import Gate

        t = calibrated_line(4)
        nm = NoiseModel.from_target(t)
        assert nm.rate_for(Gate("cx", (2, 3))) == pytest.approx(3e-3)
        assert nm.rate_for(Gate("cx", (0, 1))) == pytest.approx(1e-3)
        assert nm.applies_to(Gate("cx", (0, 1)))

    def test_esp_matches_simulated_fidelity_lower_bound(self):
        # The acceptance check at unit scale: ESP = no-error probability,
        # so exact density-matrix fidelity must sit at or above it.
        c = ghz(4)
        t = calibrated_line(4)
        est = estimate_esp(c, t)
        marked, noise = with_idle_noise(c, t, NoiseModel.from_target(t))
        ev = evaluate_fidelity(marked, noise=noise, backend="density")
        assert ev.fidelity >= est.esp - 1e-9
        # ...and the bound is tight: the residue stays small.
        assert ev.fidelity - est.esp <= (1 - est.esp)


class TestEpsBudget:
    def test_criticalities_in_unit_interval(self):
        c = ghz(3)
        c.rz(0.3, 0).rz(0.4, 2)
        crits = rotation_criticalities(c)
        assert len(crits) == 2
        assert all(0 < x <= 1 for x in crits)

    def test_allocation_sums_to_budget(self):
        c = ghz(3)
        c.rz(0.3, 0).rz(0.4, 1).rz(0.5, 2)
        alloc = allocate_eps_budget(c, 0.03)
        assert len(alloc) == 3
        assert eps_schedule_total(alloc) <= 0.03 + 1e-12
        assert eps_schedule_total(alloc) == pytest.approx(0.03)

    def test_critical_rotation_gets_tightest_eps(self):
        # Wire 0 carries a long serial chain -> its rotation is most
        # critical; the slack-rich rotation on wire 1 gets more budget.
        c = Circuit(2)
        for _ in range(6):
            c.h(0)
        c.rz(0.3, 0)
        c.rz(0.4, 1)
        crits = rotation_criticalities(c)
        alloc = allocate_eps_budget(c, 0.02)
        assert crits[0] > crits[1]
        assert alloc[0] < alloc[1]

    def test_trivial_rotations_consume_no_slice(self):
        c = Circuit(1)
        c.rz(math.pi / 2, 0)  # trivial: exact Clifford word
        c.rz(0.3, 0)
        assert len(allocate_eps_budget(c, 0.01)) == 1

    def test_empty_and_invalid(self):
        assert allocate_eps_budget(ghz(2), 0.01) == []
        with pytest.raises(ValueError, match="budget"):
            allocate_eps_budget(ghz(2), 0.0)
        assert flat_eps_schedule(ghz(2), 0.01) == []

    def test_synthesize_lowered_consumes_schedule(self):
        c = Circuit(1)
        c.rz(0.3, 0)
        cache = SynthesisCache()
        res = synthesize_lowered(
            c, "rz", 0.1, cache, seed=0, eps_schedule=[1e-3],
        )
        assert res.eps_allocation == (1e-3,)
        assert res.total_synthesis_error <= 1e-3

    def test_eps_schedule_too_short_raises(self):
        # Two nontrivial rotations: one entry is too few, three too many.
        c = Circuit(1)
        c.rz(0.3, 0).rz(0.4, 0)
        for schedule in ([1e-2], [1e-2, 1e-2, 1e-2]):
            with pytest.raises(ValueError, match="eps_schedule"):
                synthesize_lowered(
                    c, "rz", 0.1, SynthesisCache(), seed=0,
                    eps_schedule=schedule,
                )


class TestCompileObjectives:
    def test_bad_objective_rejected(self):
        with pytest.raises(ValueError, match="objective"):
            compile_circuit(ghz(2), objective="fastest")

    def test_esp_objective_requires_target(self):
        # Without calibration the "search" would be a silent no-op.
        with pytest.raises(ValueError, match="needs a target"):
            compile_circuit(ghz(2), objective="esp")

    def test_esp_objective_never_worse_than_baseline(self):
        t = calibrated_line(4)
        c = ghz(4)
        c.rz(0.3, 1).rz(0.7, 2)
        cache = SynthesisCache()
        base = compile_circuit(
            c, workflow="gridsynth", eps=0.01, cache=cache,
            optimization_level=2, target=t,
        )
        tuned = compile_circuit(
            c, workflow="gridsynth", eps=0.01, cache=cache,
            optimization_level=2, target=t, objective="esp",
        )
        assert base.esp is not None and tuned.esp is not None
        assert tuned.esp >= base.esp - 1e-12
        assert tuned.objective == "esp"
        assert tuned.schedule is not None and tuned.makespan > 0

    def test_depth_objective_without_target(self):
        c = ghz(3)
        c.rz(0.3, 0)
        res = compile_circuit(
            c, workflow="gridsynth", eps=0.05, optimization_level=2,
            objective="depth",
        )
        assert res.schedule is not None
        assert res.makespan == pytest.approx(res.schedule.makespan)
        assert res.esp is None

    def test_count_objective_with_target_reports_schedule_and_esp(self):
        t = calibrated_line(4)
        res = compile_circuit(
            ghz(4), workflow="gridsynth", eps=0.05,
            optimization_level=1, target=t,
        )
        assert res.schedule is not None
        assert 0 < res.esp < 1

    def test_eps_budget_threads_through_compile(self):
        t = calibrated_line(4)
        c = ghz(4)
        c.rz(0.3, 1).rz(0.7, 2)
        res = compile_circuit(
            c, workflow="gridsynth", cache=SynthesisCache(),
            optimization_level=2, target=t, eps_budget=0.02,
        )
        assert res.eps_allocation is not None
        assert res.total_synthesis_error <= 0.02 + 1e-9

    def test_depth_objective_not_worse_than_count_makespan(self):
        t = calibrated_line(4)
        c = ghz(4)
        c.rz(0.3, 1).rz(0.7, 2)
        cache = SynthesisCache()
        count = compile_circuit(
            c, workflow="gridsynth", eps=0.01, cache=cache,
            optimization_level="best", target=t,
        )
        dep = compile_circuit(
            c, workflow="gridsynth", eps=0.01, cache=cache,
            optimization_level="best", target=t, objective="depth",
        )
        assert dep.makespan <= count.makespan + 1e-9


class TestRoutingCostAware:
    def test_cost_aware_identical_on_uncalibrated_targets(self):
        from repro.target import route_circuit

        c = ghz(5)
        c.cx(0, 4).cx(1, 3)
        t = Target.line(5)
        a = route_circuit(c, t, cost_aware=False)
        b = route_circuit(c, t, cost_aware=True)
        assert a.circuit.gates == b.circuit.gates
        assert a.swaps_inserted == b.swaps_inserted

    def test_cost_aware_routes_stay_valid(self):
        from repro.target import (
            on_coupling_edges,
            route_circuit,
            routed_statevector_equivalent,
        )

        c = ghz(4)
        c.cx(0, 3).cx(1, 3)
        t = calibrated_line(4)
        r = route_circuit(c, t, cost_aware=True)
        assert on_coupling_edges(r.circuit, t)
        assert routed_statevector_equivalent(c, r)

    def test_dense_layout_prefers_low_error_region(self):
        from repro.target import dense_layout

        # Two disjoint line segments of a 2x4 grid-like ring: put the
        # calibration gradient on the edges and check the busy pair
        # lands on the lowest-error edge among the best-connected.
        c = Circuit(2)
        c.cx(0, 1).cx(0, 1)
        t = dataclasses.replace(
            Target.ring(6),
            edge_errors={(q, (q + 1) % 6) if q < 5 else (0, 5): 1e-3
                         for q in range(6)},
        )
        # Make edge (3, 4) clearly the best.
        errs = dict(t.edge_errors)
        errs[(3, 4)] = 1e-5
        t = dataclasses.replace(t, edge_errors=errs)
        lay = dense_layout(c, t)
        assert {lay.physical(0), lay.physical(1)} == {3, 4}


class TestIdleMarkerHygiene:
    """Markers are bookkeeping: metrics and passes must not count them."""

    @staticmethod
    def _marked_circuit():
        c = Circuit(3)
        c.h(0).t(0).cx(0, 1).t(1).cx(1, 2).s(2)
        marked = insert_idle_markers(c, Target.line(3))
        assert any(is_idle_marker(g) for g in marked.gates)
        return c, marked

    def test_metrics_ignore_markers(self):
        from repro.circuits import (
            depth,
            gate_counts,
            t_count,
            t_depth,
            two_qubit_depth,
        )

        c, marked = self._marked_circuit()
        assert depth(marked) == depth(c)
        assert t_depth(marked) == t_depth(c)
        assert two_qubit_depth(marked) == two_qubit_depth(c)
        assert t_count(marked) == t_count(c)
        assert gate_counts(marked) == gate_counts(c)

    def test_gate_counts_keeps_plain_identity(self):
        from repro.circuits import gate_counts

        c = Circuit(1)
        c.append("i", 0)  # plain identity: a real gate, no duration
        c.t(0)
        assert gate_counts(c) == {"i": 1, "t": 1}

    def test_strip_idle_markers_roundtrip(self):
        from repro.schedule import strip_idle_markers

        c, marked = self._marked_circuit()
        stripped = strip_idle_markers(marked)
        assert not any(is_idle_marker(g) for g in stripped.gates)
        assert sorted(g.name for g in stripped.gates) == sorted(
            g.name for g in c.gates
        )
        # Markers are identities, so stripping preserves the state.
        np.testing.assert_allclose(
            stripped.statevector(), c.statevector(), atol=1e-12
        )

    def test_optimize_after_scheduling_matches_unmarked(self):
        from repro.optimizers import optimize_circuit

        c, marked = self._marked_circuit()
        opt_marked = optimize_circuit(marked)
        opt_plain = optimize_circuit(c)
        assert not any(is_idle_marker(g) for g in opt_marked.gates)
        assert sorted(g.name for g in opt_marked.gates) == sorted(
            g.name for g in opt_plain.gates
        )
        overlap = abs(
            np.vdot(opt_marked.statevector(), c.statevector())
        )
        assert overlap == pytest.approx(1.0, abs=1e-9)

    def test_schedule_mark_optimize_metrics_roundtrip(self):
        from repro.circuits import depth, gate_counts
        from repro.optimizers import optimize_circuit

        c, marked = self._marked_circuit()
        recompiled = optimize_circuit(marked)
        assert gate_counts(recompiled) == gate_counts(optimize_circuit(c))
        assert depth(recompiled) == depth(optimize_circuit(c))
