"""Simulation benchmarks: statevector and density program execution, MPS sweeps.

The statevector benchmarks time the trajectory engine's runner on a
precompiled program — noiseless (pure operator application, where
fusion acts) and noisy Monte-Carlo trajectories.  Each headline
benchmark runs the engine's fused recipe and is paired with an
``/unfused`` baseline that runs the flat recipe through the same
runner.  The density benchmark times the exact engine's fused
superoperator pass on a noisy Clifford+T program, paired with an
``/unfused`` baseline that applies the same program gate by gate
(:func:`_density_unfused`).  The RQ4 trajectory benchmark runs 200
trajectories at the calibrated rate, where most draw no error, and the
divergent one at 1e-2, where nearly every trajectory ends on a row of
its own; each is paired with an ``/ungrouped`` baseline that evolves
one state per trajectory in chunks (:func:`_run_ungrouped`).
:func:`run_specs` times each pair interleaved, round by round, and
:func:`finalize` records each speedup as a standing number.  The MPS benchmark sweeps a
nearest-neighbor circuit through the bond-truncated engine.
"""

from __future__ import annotations

import random
from typing import Callable

import numpy as np

from repro.bench.harness import (
    BenchResult,
    BenchSpec,
    run_with_twins,
    twin_speedup,
)


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
    fused: bool,
) -> BenchSpec:
    def setup():
        from repro.sim.backends.statevector import (
            StatevectorTrajectoryBackend,
        )
        from repro.sim.noise import NoiseModel
        from repro.sim.program import compile_program

        circuit = _clifford_t_circuit(n_qubits, n_gates, seed=11)
        noise = NoiseModel.t_gates_only(1e-3) if noisy else None
        # The program is compiled in the fixture (the steady state of
        # sweeps, where the cache serves it), so both recipes are timed
        # through the same engine runner.
        program = compile_program(circuit, noise, fused=fused)
        backend = StatevectorTrajectoryBackend(
            trajectories=trajectories, seed=5,
        )

        def run():
            backend._run_program(program)

        return run

    return BenchSpec(
        name=name,
        params={
            "n_qubits": n_qubits,
            "n_gates": n_gates,
            "trajectories": trajectories,
            "noise": "t_gates_only(1e-3)" if noisy else None,
            "fused": fused,
            "seed": 11,
        },
        setup=setup,
    )


def _run_chunk_ungrouped(program, uniforms: np.ndarray) -> np.ndarray:
    """The trajectory engine's chunk loop with one state per trajectory.

    Every operator acts on all ``k`` states and each non-identity
    mixture outcome on the trajectories that drew it: the engine's
    execution before trajectories shared a state row per outcome
    history.
    """
    from repro.sim.backends.statevector import (
        _apply_1q_batch,
        _apply_kraus_general,
        _apply_matrix_batch,
    )

    k = uniforms.shape[0]
    n = program.n_qubits
    states = np.zeros((k,) + (2,) * n, dtype=complex)
    states[(slice(None),) + (0,) * n] = 1.0
    choices = program.sample_choices(uniforms)
    for ops, events in program.layers:
        for op in ops:
            states = _apply_matrix_batch(states, op.matrix, op.qubits)
        for ev in events:
            if ev.mixture is None:
                states = _apply_kraus_general(
                    states, ev.kraus, ev.qubit, uniforms[:, ev.column]
                )
                continue
            choice = choices[:, ev.column]
            for i, u in enumerate(ev.mixture.unitaries):
                if i == ev.mixture.identity_index:
                    continue
                rows = np.nonzero(choice == i)[0]
                if rows.size:
                    states[rows] = _apply_1q_batch(states[rows], u, ev.qubit)
    return states.reshape(k, -1)


def _run_ungrouped(backend, program) -> tuple[list[np.ndarray], np.ndarray]:
    """``backend._run_program`` with one state per trajectory.

    The engine's uniforms, split into chunks of ``chunk_size``
    trajectories that fan out over ``max_workers`` and each run
    :func:`_run_chunk_ungrouped`; returned in the engine's
    ``(blocks, row)`` form, as one block with a row per trajectory.
    """
    from repro.pipeline.batch import map_parallel

    uniforms = backend._uniforms(program)
    k, size = uniforms.shape[0], backend.chunk_size
    states = np.empty((k, 2**program.n_qubits), dtype=complex)

    def job(lo: int) -> None:
        states[lo : lo + size] = _run_chunk_ungrouped(
            program, uniforms[lo : lo + size]
        )

    map_parallel(job, range(0, k, size), backend.max_workers)
    return [states], np.arange(k)


def _trajectory_spec(name: str, rate: str, grouped: bool) -> BenchSpec:
    """200 trajectories on a 10-qubit, 700-gate circuit at
    ``non_pauli_gates(rate)``: at RQ4's calibrated rate most draw no
    error, at 1e-2 nearly every one diverges."""
    n_qubits, n_gates, trajectories = 10, 700, 200

    def setup():
        from repro.sim.backends.statevector import (
            StatevectorTrajectoryBackend,
        )
        from repro.sim.noise import NoiseModel
        from repro.sim.program import compile_program

        circuit = _clifford_t_circuit(n_qubits, n_gates, seed=19)
        noise = NoiseModel.non_pauli_gates(float(rate))
        program = compile_program(circuit, noise, fused=True)
        backend = StatevectorTrajectoryBackend(
            trajectories=trajectories, seed=5,
        )
        if grouped:
            return lambda: backend._run_program(program)
        return lambda: _run_ungrouped(backend, program)

    return BenchSpec(
        name=name,
        params={
            "n_qubits": n_qubits,
            "n_gates": n_gates,
            "trajectories": trajectories,
            "noise": f"non_pauli_gates({rate})",
            "grouped": grouped,
            "seed": 19,
        },
        setup=setup,
    )


def _apply_operator(
    rho: np.ndarray, m: np.ndarray, axes: list[int]
) -> np.ndarray:
    """Contract a local operator into ket axes (0..n-1) or bra axes (n..2n-1)."""
    k = len(axes)
    m = m.reshape((2,) * (2 * k))
    rho = np.tensordot(m, rho, axes=(list(range(k, 2 * k)), axes))
    return np.moveaxis(rho, list(range(k)), axes)


def _density_unfused(program) -> np.ndarray:
    """The density engine's program gate by gate, with no fusion.

    Two state contractions per operator (ket, then bra) and two per
    Kraus term of each noise event, plus the sum over terms: the
    engine's execution before it fused superoperators.
    """
    n = program.n_qubits
    dim = 2**n
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    rho = rho.reshape((2,) * (2 * n))
    for ops, events in program.layers:
        for op in ops:
            rho = _apply_operator(rho, op.matrix, list(op.qubits))
            rho = _apply_operator(
                rho, op.matrix.conj(), [n + q for q in op.qubits]
            )
        for ev in events:
            total = None
            for k in ev.kraus:
                term = _apply_operator(rho, k, [ev.qubit])
                term = _apply_operator(term, k.conj(), [n + ev.qubit])
                total = term if total is None else total + term
            rho = total
    return rho.reshape(dim, dim)


def _density_spec(
    name: str, n_qubits: int, n_gates: int, fused: bool
) -> BenchSpec:
    def setup():
        from repro.sim.backends.density import DensityMatrixBackend
        from repro.sim.noise import NoiseModel
        from repro.sim.program import compile_program

        circuit = _clifford_t_circuit(n_qubits, n_gates, seed=17)
        noise = NoiseModel.non_pauli_gates(1e-4)
        program = compile_program(circuit, noise, fused=False)
        runner = DensityMatrixBackend()._run_program if fused else _density_unfused
        return lambda: runner(program)

    return BenchSpec(
        name=name,
        params={
            "n_qubits": n_qubits,
            "n_gates": n_gates,
            "noise": "non_pauli_gates(1e-4)",
            "fused": fused,
            "seed": 17,
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
                noisy=False, fused=True,
            ),
            _statevector_spec(
                "statevector/trajectories/noisy", 6, 80, 8,
                noisy=True, fused=True,
            ),
            _mps_spec(8, 80, max_bond=16),
        ]
    return [
        _statevector_spec(
            "statevector/layers/noiseless", 12, 400, 1,
            noisy=False, fused=True,
        ),
        _statevector_spec(
            "statevector/layers/noiseless/unfused", 12, 400, 1,
            noisy=False, fused=False,
        ),
        _statevector_spec(
            "statevector/trajectories/noisy", 10, 600, 50,
            noisy=True, fused=True,
        ),
        _statevector_spec(
            "statevector/trajectories/noisy/unfused", 10, 600, 50,
            noisy=True, fused=False,
        ),
        _trajectory_spec("statevector/trajectories/rq4", "1e-4", grouped=True),
        _trajectory_spec(
            "statevector/trajectories/rq4/ungrouped", "1e-4", grouped=False
        ),
        _trajectory_spec(
            "statevector/trajectories/divergent", "1e-2", grouped=True
        ),
        _trajectory_spec(
            "statevector/trajectories/divergent/ungrouped", "1e-2",
            grouped=False,
        ),
        _density_spec("density/noisy", 6, 1000, fused=True),
        _density_spec("density/noisy/unfused", 6, 1000, fused=False),
        _mps_spec(16, 300, max_bond=32),
    ]


#: Baseline twin suffixes: the flat recipe, the one-state-per-trajectory loop.
_TWINS = ("/unfused", "/ungrouped")


def run_specs(
    specs: list[BenchSpec],
    warmup: int,
    repeats: int,
    progress: Callable[[str], None] | None = None,
) -> list[BenchResult]:
    """Time each headline entry interleaved with its ``/unfused`` or
    ``/ungrouped`` twin, which :func:`specs` lists right after it."""
    return run_with_twins(specs, _TWINS, warmup, repeats, progress)


def finalize(results: list[BenchResult]) -> None:
    """Record ``speedup_vs_unfused`` (fusion's contribution) or
    ``speedup_vs_ungrouped`` (shared trajectory rows') per pair: the
    median over rounds of the baseline's time over the headline's time
    in the same round (:func:`~repro.bench.harness.twin_speedup`)."""
    by_name = {r.name: r for r in results}
    for name, result in by_name.items():
        for suffix in _TWINS:
            twin = by_name.get(f"{name}{suffix}")
            if twin is not None:
                kind = suffix[1:]
                result.extra[f"speedup_vs_{kind}"] = twin_speedup(result, twin)
                result.extra[f"{kind}_median_s"] = twin.median_s
