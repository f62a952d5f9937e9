"""RQ7 (beyond the paper): does predicted ESP track simulated fidelity?

The ESP cost model (:mod:`repro.target.cost`) predicts the probability
that a compiled circuit suffers no error event — per-gate success rates
from the target's calibration times an idle-decoherence penalty from
the timed schedule's slack.  This experiment closes the loop the model
promises: for every (circuit, topology) cell it

1. calibrates the swept topology with a reproducible synthetic
   snapshot (per-edge CX errors, per-gate rates and durations, an idle
   decoherence rate),
2. compiles twice — the PR-4-era baseline (``objective='count'``,
   error-agnostic routing) and the cost-driven ``objective='esp'``
   search — and records both predictions,
3. simulates the ESP-compiled circuit under the *same* calibration
   (idle markers inserted from the schedule, per-edge noise rates) and
   compares measured fidelity against the prediction.

ESP is the no-error branch probability, so simulated fidelity must sit
at or above it (within sampling error); the gap is the residual
overlap of error branches.  The objective search always contains the
baseline variant, so ``esp_objective >= esp_baseline`` cell by cell.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.bench_circuits import BenchmarkCase
from repro.circuits import Circuit
from repro.experiments.rq6_connectivity import target_for
from repro.pipeline import SynthesisCache, compile_circuit
from repro.schedule import with_idle_noise
from repro.sim import NoiseModel, evaluate_fidelity
from repro.target import Target

#: Synthetic calibration defaults (schedule time units / error rates).
CAL_GATE_DURATIONS = {
    "cx": 3.0, "cz": 3.0, "swap": 9.0, "t": 4.0, "tdg": 4.0,
}
CAL_GATE_ERRORS = {
    "h": 5e-5, "s": 5e-5, "sdg": 5e-5, "t": 2e-4, "tdg": 2e-4,
    "cx": 1e-3, "cz": 1e-3, "swap": 3e-3,
}
CAL_IDLE_RATE = 1e-5


def calibrate(target: Target) -> Target:
    """A reproducible synthetic calibration snapshot of ``target``.

    Per-gate rates/durations come from the module defaults; per-edge CX
    errors are jittered uniformly in [0.5x, 2x] of the CX rate (seeded
    by the qubit count) so the cost-aware layout/routing tie-breaks
    have a real gradient to follow.
    """
    rng = np.random.default_rng([0, target.n_qubits])
    cx = CAL_GATE_ERRORS["cx"]
    edge_errors = {
        (min(a, b), max(a, b)): float(cx * rng.uniform(0.5, 2.0))
        for a, b in target.coupling.edge_pairs()
    }
    return replace(
        target,
        gate_errors=dict(CAL_GATE_ERRORS),
        gate_durations=dict(CAL_GATE_DURATIONS),
        edge_errors=edge_errors,
        idle_error_rate=CAL_IDLE_RATE,
    )


@dataclass
class ScheduleCase:
    """One (circuit, topology) cell of the ESP-validation grid."""

    name: str
    topology: str
    n_qubits: int
    swaps: int
    makespan: float
    total_idle: float
    esp_baseline: float  # objective='count', error-agnostic routing
    esp_objective: float  # objective='esp' winning variant
    fidelity: float
    std_error: float | None

    @property
    def delta(self) -> float:
        """Measured minus predicted: the error-branch residue."""
        return self.fidelity - self.esp_objective


def run_rq7(
    cases: list[BenchmarkCase],
    topologies: tuple[str, ...] = ("line", "ring", "grid", "all_to_all"),
    workflow: str = "trasyn",
    eps: float = 0.01,
    optimization_level: int | str = 2,
    seed: int = 7,
    trajectories: int = 300,
) -> list[ScheduleCase]:
    """Compile + simulate every (circuit, topology) cell (see module doc)."""
    cache = SynthesisCache()
    out: list[ScheduleCase] = []
    for case in cases:
        for topology in topologies:
            target = calibrate(target_for(case.circuit.n_qubits, topology))
            # cost_aware=False pins the error-agnostic PR-4 router so
            # esp_baseline measures exactly the pre-cost-model stack.
            baseline = compile_circuit(
                case.circuit, workflow=workflow, eps=eps, cache=cache,
                seed=seed, optimization_level=optimization_level,
                target=target, cost_aware=False,
            )
            tuned = compile_circuit(
                case.circuit, workflow=workflow, eps=eps, cache=cache,
                seed=seed, optimization_level=optimization_level,
                target=target, objective="esp",
            )
            noise = NoiseModel.from_target(target)
            marked, noise = with_idle_noise(tuned.circuit, target, noise)
            ev = evaluate_fidelity(
                marked, noise=noise, backend="statevector",
                trajectories=trajectories, seed=seed,
            )
            out.append(
                ScheduleCase(
                    name=case.name,
                    topology=topology,
                    n_qubits=target.n_qubits,
                    swaps=tuned.routing.swaps_inserted,
                    makespan=tuned.makespan,
                    total_idle=tuned.schedule.total_idle,
                    esp_baseline=baseline.esp,
                    esp_objective=tuned.esp,
                    fidelity=ev.fidelity,
                    std_error=ev.std_error,
                )
            )
    return out


def esp_rows(results: list[ScheduleCase]) -> list[list]:
    """Table rows for :func:`repro.experiments.reporting.esp_table`."""
    return [
        [
            r.name, r.topology, r.swaps, r.makespan, r.total_idle,
            r.esp_baseline, r.esp_objective, r.fidelity, r.delta,
        ]
        for r in results
    ]


def _demo_cases() -> list[BenchmarkCase]:
    import numpy as np

    from repro.bench_circuits import ft_algorithms as ft
    from repro.bench_circuits.qaoa import qaoa_maxcut

    rng = np.random.default_rng(11)
    demo: list[tuple[str, str, Circuit]] = [
        ("qft_n4", "ft_algorithm", ft.qft(4)),
        ("qaoa_n4_p1", "qaoa", qaoa_maxcut(4, 1, rng)),
    ]
    return [BenchmarkCase(n, c, circ) for n, c, circ in demo]


def main() -> int:
    from repro.experiments.reporting import esp_table, print_header

    results = run_rq7(_demo_cases())
    print_header("RQ7: predicted ESP vs simulated fidelity")
    print(esp_table(esp_rows(results)))
    print()
    worst = min(results, key=lambda r: r.esp_objective)
    print(
        f"lowest predicted ESP: {worst.esp_objective:.4f} "
        f"({worst.name} on {worst.topology}), measured {worst.fidelity:.4f}"
    )
    gains = [r.esp_objective - r.esp_baseline for r in results]
    print(f"mean ESP gain of the objective search: {np.mean(gains):+.4f}")
    bad = [r for r in results if r.esp_objective < r.esp_baseline - 1e-12]
    if bad:
        raise SystemExit(
            f"objective search lost to baseline on {len(bad)} cells"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
