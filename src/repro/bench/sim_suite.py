"""Simulation benchmarks: statevector layer application and MPS sweeps.

The statevector benchmarks time the trajectory engine's layered batch
application — noiseless (pure layer application, where fusion acts)
and noisy Monte-Carlo trajectories.  Each headline benchmark (1q+2q
fusion) is paired with an ``/unfused`` baseline so the fusion speedup
is recorded as a standing number.  The MPS benchmark sweeps a
nearest-neighbor circuit through the bond-truncated engine.
"""

from __future__ import annotations

import random

from repro.bench.harness import BenchResult, BenchSpec


def _clifford_t_circuit(n_qubits: int, n_gates: int, seed: int):
    """1q-heavy Clifford+T stream, nearest-neighbor 2q gates."""
    from repro.circuits.circuit import Circuit

    rng = random.Random(seed)
    c = Circuit(n_qubits)
    for _ in range(n_gates):
        if rng.random() < 0.8:
            c.append(
                rng.choice(["h", "t", "s", "tdg", "x"]),
                rng.randrange(n_qubits),
            )
        else:
            a = rng.randrange(n_qubits - 1)
            c.append("cx", (a, a + 1))
    return c


def _statevector_spec(
    name: str,
    n_qubits: int,
    n_gates: int,
    trajectories: int,
    noisy: bool,
    fuse: bool,
    fuse2q: bool = True,
) -> BenchSpec:
    def setup():
        from repro.sim.backends.statevector import (
            StatevectorTrajectoryBackend,
        )
        from repro.sim.noise import NoiseModel
        from repro.sim.program import ProgramCache

        circuit = _clifford_t_circuit(n_qubits, n_gates, seed=11)
        noise = NoiseModel.t_gates_only(1e-3) if noisy else None
        # A private cache so a warm program is part of the fixture (the
        # steady state of sweeps) without touching the process cache.
        backend = StatevectorTrajectoryBackend(
            trajectories=trajectories, seed=5,
            fuse=fuse, fuse2q=fuse2q,
            program_cache=ProgramCache(),
        )

        def run():
            backend.run(circuit, noise)

        return run

    return BenchSpec(
        name=name,
        params={
            "n_qubits": n_qubits,
            "n_gates": n_gates,
            "trajectories": trajectories,
            "noise": "t_gates_only(1e-3)" if noisy else None,
            "fuse": fuse,
            "fuse2q": fuse2q,
            "seed": 11,
        },
        setup=setup,
    )


def _mps_spec(n_qubits: int, n_gates: int, max_bond: int) -> BenchSpec:
    def setup():
        from repro.sim.backends.mps_backend import MPSBackend

        circuit = _clifford_t_circuit(n_qubits, n_gates, seed=13)
        backend = MPSBackend(max_bond=max_bond, trajectories=1, seed=5)

        def run():
            backend.run(circuit)

        return run

    return BenchSpec(
        name=f"mps/sweep/{n_qubits}q",
        params={
            "n_qubits": n_qubits,
            "n_gates": n_gates,
            "max_bond": max_bond,
            "seed": 13,
        },
        setup=setup,
    )


def specs(quick: bool) -> list[BenchSpec]:
    if quick:
        return [
            _statevector_spec(
                "statevector/layers/noiseless", 8, 120, 1,
                noisy=False, fuse=True,
            ),
            _statevector_spec(
                "statevector/trajectories/noisy", 6, 80, 8,
                noisy=True, fuse=True,
            ),
            _mps_spec(8, 80, max_bond=16),
        ]
    return [
        _statevector_spec(
            "statevector/layers/noiseless", 12, 400, 1,
            noisy=False, fuse=True,
        ),
        _statevector_spec(
            "statevector/layers/noiseless/unfused", 12, 400, 1,
            noisy=False, fuse=False, fuse2q=False,
        ),
        _statevector_spec(
            "statevector/trajectories/noisy", 10, 600, 50,
            noisy=True, fuse=True,
        ),
        _statevector_spec(
            "statevector/trajectories/noisy/unfused", 10, 600, 50,
            noisy=True, fuse=False, fuse2q=False,
        ),
        _mps_spec(16, 300, max_bond=32),
    ]


def finalize(results: list[BenchResult]) -> None:
    """Record ``speedup_vs_unfused`` (fusion's contribution) from the
    ``/unfused`` pairs."""
    by_name = {r.name: r for r in results}
    for fused_name in (
        "statevector/layers/noiseless",
        "statevector/trajectories/noisy",
    ):
        fused = by_name.get(fused_name)
        if fused is None:
            continue
        unfused = by_name.get(f"{fused_name}/unfused")
        if unfused is not None:
            fused.extra["speedup_vs_unfused"] = round(
                unfused.median_s / fused.median_s, 2
            )
            fused.extra["unfused_median_s"] = unfused.median_s
