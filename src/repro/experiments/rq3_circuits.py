"""RQ3: circuit-level comparison of the trasyn and gridsynth workflows.

Regenerates Figure 10 (T count / T depth / Clifford ratios by category),
Figure 11 (absolute circuit infidelities), Figure 12 (vs the
BQSKit-style block-resynthesis flow), and the Figure 2 aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench_circuits import BenchmarkCase
from repro.circuits import rotation_count
from repro.experiments.reporting import geomean
from repro.experiments.workflows import matched_thresholds
from repro.optimizers import resynthesize
from repro.pipeline import (
    DEFAULT_EPS,
    SynthesisCache,
    SynthesizedCircuit,
    compile_circuit,
)
from repro.sim.backends import select_backend
from repro.sim.evaluate import evaluate_fidelity, make_reference_state


@dataclass
class CircuitComparison:
    name: str
    category: str
    n_qubits: int
    trasyn_flow: SynthesizedCircuit
    gridsynth_flow: SynthesizedCircuit
    trasyn_infidelity: float | None = None
    gridsynth_infidelity: float | None = None

    @property
    def t_ratio(self) -> float:
        return self.gridsynth_flow.t_count / max(1, self.trasyn_flow.t_count)

    @property
    def t_depth_ratio(self) -> float:
        return self.gridsynth_flow.t_depth / max(1, self.trasyn_flow.t_depth)

    @property
    def clifford_ratio(self) -> float:
        return self.gridsynth_flow.clifford_count / max(
            1, self.trasyn_flow.clifford_count
        )


def _state_infidelities(
    case_circuit, synthesized: tuple, max_qubits: int
) -> tuple[float | None, ...]:
    """Noiseless synthesis infidelities through the backend protocol,
    all scored against one reference state of ``case_circuit``.

    Dispatch means circuits past the dense-statevector range fall back
    to MPS instead of being skipped; ``max_qubits`` stays as a
    wall-clock bound for time-boxed runs.
    """
    if case_circuit.n_qubits > max_qubits:
        return (None,) * len(synthesized)
    reference = make_reference_state(
        case_circuit, select_backend(case_circuit.n_qubits)
    )
    return tuple(
        evaluate_fidelity(
            circuit, reference=case_circuit, reference_state=reference
        ).infidelity
        for circuit in synthesized
    )


def run_rq3(
    cases: list[BenchmarkCase],
    base_eps: float = DEFAULT_EPS,
    seed: int = 3,
    fidelity_max_qubits: int = 16,
) -> list[CircuitComparison]:
    cache = SynthesisCache()
    out = []
    for case in cases:
        u3_circ, rz_circ, eps_t, eps_g = matched_thresholds(
            case.circuit, base_eps
        )
        tra = compile_circuit(
            u3_circ, "trasyn", eps_t, cache=cache, seed=seed,
            pre_transpiled=True,
        )
        grid = compile_circuit(
            rz_circ, "gridsynth", eps_g, cache=cache, seed=seed,
            pre_transpiled=True,
        )
        comp = CircuitComparison(
            name=case.name, category=case.category,
            n_qubits=case.n_qubits, trasyn_flow=tra, gridsynth_flow=grid,
        )
        comp.trasyn_infidelity, comp.gridsynth_infidelity = (
            _state_infidelities(
                case.circuit, (tra.circuit, grid.circuit),
                fidelity_max_qubits,
            )
        )
        out.append(comp)
    return out


def category_summary(results: list[CircuitComparison]) -> dict[str, dict[str, float]]:
    """Figure 10 aggregates: geomean ratios per category."""
    summary = {}
    for cat in sorted({r.category for r in results}):
        group = [r for r in results if r.category == cat]
        summary[cat] = {
            "count": len(group),
            "t_ratio": geomean([r.t_ratio for r in group]),
            "t_depth_ratio": geomean([r.t_depth_ratio for r in group]),
            "clifford_ratio": geomean([r.clifford_ratio for r in group]),
        }
    summary["all"] = {
        "count": len(results),
        "t_ratio": geomean([r.t_ratio for r in results]),
        "t_depth_ratio": geomean([r.t_depth_ratio for r in results]),
        "clifford_ratio": geomean([r.clifford_ratio for r in results]),
    }
    return summary


def figure2_summary(results: list[CircuitComparison]) -> dict[str, float]:
    """Figure 2 headline numbers: geomean and max reduction ratios."""
    infid_ratios = [
        r.gridsynth_infidelity / r.trasyn_infidelity
        for r in results
        if r.trasyn_infidelity and r.gridsynth_infidelity
        and r.trasyn_infidelity > 1e-12
    ]
    return {
        "t_ratio_geomean": geomean([r.t_ratio for r in results]),
        "t_ratio_max": max(r.t_ratio for r in results),
        "clifford_ratio_geomean": geomean([r.clifford_ratio for r in results]),
        "clifford_ratio_max": max(r.clifford_ratio for r in results),
        "infidelity_ratio_geomean": geomean(infid_ratios) if infid_ratios else float("nan"),
    }


# ---------------------------------------------------------------------------
# Figure 12: trasyn vs BQSKit+gridsynth
# ---------------------------------------------------------------------------

@dataclass
class ResynthComparison:
    name: str
    rotations_direct: int
    rotations_resynth: int
    t_direct: int
    t_resynth: int

    @property
    def rotation_ratio(self) -> float:
        return self.rotations_resynth / max(1, self.rotations_direct)

    @property
    def t_ratio(self) -> float:
        return self.t_resynth / max(1, self.t_direct)


def run_figure12(
    cases: list[BenchmarkCase],
    base_eps: float = DEFAULT_EPS,
    seed: int = 4,
) -> list[ResynthComparison]:
    """Compare the trasyn flow against block-resynthesis + gridsynth."""
    cache = SynthesisCache()
    out = []
    for case in cases:
        u3_circ, _, eps_t, _ = matched_thresholds(case.circuit, base_eps)
        tra = compile_circuit(
            u3_circ, "trasyn", eps_t, cache=cache, seed=seed,
            pre_transpiled=True,
        )
        blocked = resynthesize(case.circuit)
        _, rz_circ2, _, eps_g2 = matched_thresholds(blocked, base_eps)
        grid = compile_circuit(
            rz_circ2, "gridsynth", eps_g2, cache=cache, seed=seed,
            pre_transpiled=True,
        )
        out.append(
            ResynthComparison(
                name=case.name,
                rotations_direct=rotation_count(u3_circ),
                rotations_resynth=rotation_count(rz_circ2),
                t_direct=tra.t_count,
                t_resynth=grid.t_count,
            )
        )
    return out
