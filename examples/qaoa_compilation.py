"""Compile a QAOA MaxCut circuit to fault-tolerant Clifford+T.

Demonstrates the full U3-vs-Rz workflow on the workload the paper's
Section 3.4 analyzes: the commutation pass merges mixer Rx rotations
into the next cost layer's Rz gates ("all but one Rx per layer"),
reducing rotations before synthesis even begins.

    python examples/qaoa_compilation.py
"""

import numpy as np

from repro.bench_circuits import qaoa_maxcut
from repro.circuits import rotation_count
from repro.experiments.workflows import matched_thresholds
from repro.pipeline import compile_circuit

rng = np.random.default_rng(7)
circuit = qaoa_maxcut(n=10, depth=3, rng=rng)
print(f"QAOA MaxCut: {circuit.n_qubits} qubits, depth 3, "
      f"{len(circuit)} gates, {rotation_count(circuit)} raw rotations")

u3_circ, rz_circ, eps_t, eps_g = matched_thresholds(circuit, base_eps=0.01)
print()
print(f"after transpilation: U3 IR {rotation_count(u3_circ)} rotations, "
      f"Rz IR {rotation_count(rz_circ)} rotations "
      f"(merge ratio {rotation_count(rz_circ) / rotation_count(u3_circ):.2f}x)")

tra = compile_circuit(u3_circ, "trasyn", eps_t, seed=7, pre_transpiled=True)
grid = compile_circuit(rz_circ, "gridsynth", eps_g, pre_transpiled=True)

print()
print(f"{'':24}{'trasyn/U3':>12}{'gridsynth/Rz':>14}{'ratio':>8}")
for label, a, b in (
    ("T count", tra.t_count, grid.t_count),
    ("T depth", tra.t_depth, grid.t_depth),
    ("Clifford count", tra.clifford_count, grid.clifford_count),
):
    print(f"{label:24}{a:>12}{b:>14}{b / max(1, a):>8.2f}")
print()
print(f"synthesis error bounds: trasyn {tra.total_synthesis_error:.3f}, "
      f"gridsynth {grid.total_synthesis_error:.3f}")
print("(paper: ~1.6x T-count reduction on QAOA)")
