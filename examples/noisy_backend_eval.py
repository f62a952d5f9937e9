"""RQ4-style noisy fidelity evaluation through one simulation backend.

Usage::

    PYTHONPATH=src python examples/noisy_backend_eval.py [density|statevector|mps]

Picks a benchmark circuit sized for the requested engine (6 qubits for
the exact density matrix, 10 for statevector trajectories, 16 for MPS —
the last being impossible with the density-matrix engine alone),
synthesizes it with the trasyn workflow, and evaluates the noisy
fidelity of the synthesized circuit against the ideal state through
``repro.sim.backends``.  This is the per-backend smoke run CI executes
so all three engines stay green.  The statevector case also runs the
exact density engine on the same circuit and fails unless the
trajectory estimate lies within 4 standard errors of it.

Every engine runs a JIT-compiled simulation program under its own fixed
recipe (see "Compiled programs & fusion" in the README): the statevector
engine fuses noise-free 1q runs and same-pair 2q blocks, the density and
MPS engines run the flat gate stream, and the density engine folds each
wire's 1q gates and noise channels into one superoperator between 2q
gates.  ``BENCH_sim.json`` records what fusion is worth
(``speedup_vs_unfused``).
"""

import sys
import time

from repro.bench_circuits import benchmark_suite
from repro.experiments.workflows import matched_thresholds
from repro.pipeline import compile_circuit
from repro.sim import NoiseModel, evaluate_fidelity

BACKEND_CASES = {
    # backend -> (qubit count, trajectories)
    "density": (6, None),
    "statevector": (10, 100),
    "mps": (16, 10),
}


def main() -> int:
    backend = sys.argv[1] if len(sys.argv) > 1 else "statevector"
    if backend not in BACKEND_CASES:
        print(f"unknown backend {backend!r}; pick from {list(BACKEND_CASES)}")
        return 2
    n_qubits, trajectories = BACKEND_CASES[backend]
    case = next(
        c for c in benchmark_suite(max_qubits=n_qubits)
        if c.n_qubits == n_qubits and c.category == "classical_hamiltonian"
    )
    print(f"case      : {case.name} ({case.n_qubits} qubits, "
          f"{len(case.circuit)} gates)")
    u3_circ, _, eps_t, _ = matched_thresholds(case.circuit, 0.01)
    synth = compile_circuit(u3_circ, "trasyn", eps_t, pre_transpiled=True)
    print(f"synthesis : T={synth.t_count} rotations={synth.n_rotations}")
    noise = NoiseModel.non_pauli_gates(3e-4)
    start = time.monotonic()
    ev = evaluate_fidelity(
        synth.circuit, reference=case.circuit, noise=noise,
        backend=backend, trajectories=trajectories, seed=1,
    )
    print(f"evaluation: {ev.summary()}")
    print(f"total     : {time.monotonic() - start:.2f}s")
    if not 0.0 <= ev.fidelity <= 1.0 + 1e-9:
        print("FAILED: fidelity out of range")
        return 1
    if ev.fidelity < 0.5:
        print("FAILED: implausibly low fidelity for these rates")
        return 1
    if backend == "statevector":
        # Cross-check the Monte-Carlo estimate against the exact density
        # matrix of the same circuit.
        start = time.monotonic()
        exact = evaluate_fidelity(
            synth.circuit, reference=case.circuit, noise=noise,
            backend="density",
        )
        gap, bound = abs(exact.fidelity - ev.fidelity), 4 * ev.std_error
        print(f"exact     : {exact.summary()} "
              f"({time.monotonic() - start:.2f}s)")
        print(f"cross     : |exact - estimate| = {gap:.1e} "
              f"(bound 4 std errors = {bound:.1e})")
        if gap > bound:
            print("FAILED: trajectory estimate off the exact fidelity by "
                  "more than 4 standard errors")
            return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
