"""Self-checks of the benchmark's output oracle.

Run from the repository root::

    python3 perfbench/selfcheck.py

Checks that an exact word passes and the same word with one gate
flipped fails, that the einsum statevector oracle agrees with
``repro.sim`` to 1e-10 on a 4-qubit circuit, and that a compiled
circuit passes the circuit check while a corrupted copy fails it.
Exits with status 1 if any check fails.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
os.environ["REPRO_CACHE_DIR"] = str(ROOT / ".perfbench" / "tables")

import numpy as np  # noqa: E402

import oracle  # noqa: E402
from repro import trasyn  # noqa: E402
from repro.bench_circuits.suite import benchmark_suite  # noqa: E402
from repro.circuits import Circuit  # noqa: E402
from repro.experiments.workflows import matched_thresholds  # noqa: E402
from repro.linalg import haar_random_u2  # noqa: E402
from repro.pipeline import compile_circuit  # noqa: E402
from repro.sim.evaluate import evaluate_fidelity  # noqa: E402
from repro.synthesis import GateSequence  # noqa: E402

_FLIP = {"T": "Tdg", "Tdg": "T", "S": "Sdg", "Sdg": "S"}


def check_words() -> list[str]:
    errors = []
    exact = ("H", "T", "S", "H", "Tdg", "H", "T", "X")
    target = np.exp(0.7j) * GateSequence(exact, 0.0).matrix()
    # sqrt(1 - t^2) turns rounding in t ~ 1 into distances near 1e-8.
    ok, d = oracle.check_word(exact, target, 1e-6)
    if not ok:
        errors.append(f"exact word rejected (distance {d:.2e})")

    u = haar_random_u2(np.random.default_rng(11))
    word = trasyn(u, error_threshold=1e-2, rng=np.random.default_rng(11)).gates
    ok, d = oracle.check_word(word, u, 1e-2)
    if not ok:
        errors.append(f"trasyn word rejected (distance {d:.2e})")
    i = next(k for k, g in enumerate(word) if g in _FLIP)
    flipped = word[:i] + (_FLIP[word[i]],) + word[i + 1:]
    ok, d = oracle.check_word(flipped, u, 1e-2)
    if ok:
        errors.append(f"word with gate {i} flipped passed (distance {d:.2e})")
    ok, _ = oracle.check_word(word + ("Rz",), u, 1e-2)
    if ok:
        errors.append("word with a non-Clifford+T token passed")
    return errors


def check_statevector() -> list[str]:
    rng = np.random.default_rng(5)
    a = Circuit(4)
    for _ in range(40):
        q = [int(x) for x in rng.permutation(4)[:2]]
        kind = rng.integers(6)
        if kind == 0:
            a.append("cx", q)
        elif kind == 1:
            a.append(str(rng.choice(["cz", "swap"])), q)
        elif kind == 2:
            a.append(str(rng.choice(["rx", "ry", "rz"])), q[0],
                     [float(rng.uniform(-np.pi, np.pi))])
        elif kind == 3:
            a.append("u3", q[0], [float(x) for x in rng.uniform(-3, 3, 3)])
        else:
            a.append(str(rng.choice(["h", "s", "sdg", "t", "tdg", "x", "y"])),
                     q[0])
    b = Circuit(4)
    for g in a.gates:
        params = [p + 0.05 for p in g.params]
        b.append(g.name, g.qubits, params)
    ours = oracle.infidelity(b, a)
    theirs = evaluate_fidelity(b, reference=a, backend="statevector").infidelity
    if not abs(ours - theirs) <= 1e-10 or ours < 1e-6:
        return [f"oracle infidelity {ours:.12e} vs repro.sim {theirs:.12e}"]
    return []


def check_circuits() -> list[str]:
    errors = []
    case = benchmark_suite(limit=1)[0]
    _, rz_circ, _, eps_g = matched_thresholds(case.circuit)
    res = compile_circuit(rz_circ, "gridsynth", eps_g, pre_transpiled=True)
    bound = res.total_synthesis_error
    ok, inf = oracle.check_circuit(res.circuit, case.circuit, bound)
    if not ok:
        errors.append(f"{case.name}: compiled circuit rejected "
                      f"(infidelity {inf:.2e}, bound {bound**2:.2e})")
    # Drop a T gate from the middle, where it does not act on |0>.
    t_gates = [k for k, g in enumerate(res.circuit.gates) if g.name == "t"]
    drop = t_gates[len(t_gates) // 2]
    broken = Circuit(res.circuit.n_qubits)
    for k, g in enumerate(res.circuit.gates):
        if k != drop:
            broken.append(g.name, g.qubits, g.params)
    ok, inf = oracle.check_circuit(broken, case.circuit, bound)
    if ok:
        errors.append(f"{case.name}: circuit missing a T gate passed "
                      f"(infidelity {inf:.2e})")
    broken.append("rz", 0, [0.1])
    ok, _ = oracle.check_circuit(broken, case.circuit, 1.0)
    if ok:
        errors.append(f"{case.name}: circuit with an rz gate passed")
    return errors


def main() -> int:
    failures = 0
    for check in (check_words, check_statevector, check_circuits):
        errors = check()
        status = "ok" if not errors else "FAILED"
        print(f"{check.__name__}: {status}")
        for e in errors:
            print(f"  {e}")
        failures += len(errors)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
