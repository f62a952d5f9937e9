"""Figure 13: application infidelity under logical errors (RQ4).

Paper shape: the trasyn flow's gate-count advantage translates into a
consistent infidelity advantage (ratios mostly > 1, up to ~4x-5x),
stable across logical error rates.
"""

from conftest import SCALE, write_result

from repro.bench_circuits import benchmark_suite
from repro.experiments.reporting import format_table, geomean
from repro.experiments.rq4_fidelity import run_rq4


def test_fig13_noisy_fidelity(benchmark):
    cases = benchmark_suite(
        limit=3 * SCALE, max_qubits=6,
        categories=("qaoa", "quantum_hamiltonian", "classical_hamiltonian"),
    )

    def run():
        return run_rq4(cases, logical_rates=(1e-4, 1e-5), seed=15,
                       max_qubits=6)

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        (r.name, r.logical_rate, f"{r.trasyn_infidelity:.3e}",
         f"{r.gridsynth_infidelity:.3e}", round(r.infidelity_ratio, 2),
         round(r.gate_count_ratio, 2))
        for r in results
    ]
    table = format_table(
        ["circuit", "rate", "trasyn infid", "gridsynth infid",
         "infid ratio", "gate ratio"],
        rows,
    )
    ratios = [r.infidelity_ratio for r in results if r.infidelity_ratio > 0]
    text = (
        "FIGURE 13 (RQ4): infidelity ratio under logical errors\n" + table
        + f"\ngeomean infidelity ratio {geomean(ratios):.2f}"
        + "\npaper shape: ratios consistently above 1 across rates"
    )
    write_result("fig13_rq4_noise", text)
    assert geomean(ratios) > 0.9, "noise advantage collapsed"
