"""Optimizer-pass benchmarks: columnar kernels vs reference loops.

Every DAG pass — cancel inverses, merge rotations, fold phases,
collect 2q blocks — plus the full ``optimize_table`` fixpoint is
benchmarked end-to-end as ``optimize_circuit`` drives it: IR build,
kernel, linearize.  Each columnar
:class:`~repro.circuits.dag_table.DAGTable` entry is paired with the
per-node ``*_reference`` loop on :class:`CircuitDAG` over the same
mixed workload.  :func:`run_specs` times each pair interleaved, round
by round, and :func:`finalize` records the pass-only
``speedup_vs_reference`` on the columnar entry.  The
``dag/optimize_fixpoint`` pair is the headline: the incremental
dirty-wire driver vs the rescan-everything reference fixpoint.
"""

from __future__ import annotations

import random
import statistics
from typing import Callable

from repro.bench.harness import BenchResult, BenchSpec, run_interleaved


def _optimizer_workload(n_qubits: int, n_gates: int, seed: int):
    """Mixed stream exercising every DAG pass: rotations to merge,
    self-inverse runs to cancel, and a CX network to fold across."""
    from repro.circuits.circuit import Circuit

    rng = random.Random(seed)
    c = Circuit(n_qubits)
    for _ in range(n_gates):
        r = rng.random()
        if r < 0.15:
            c.append(
                rng.choice(["rz", "rx", "ry"]),
                rng.randrange(n_qubits),
                (rng.uniform(-3.0, 3.0),),
            )
        elif r < 0.35:
            c.append(rng.choice(["t", "s", "tdg"]), rng.randrange(n_qubits))
        elif r < 0.45:
            c.append(rng.choice(["h", "x", "z"]), rng.randrange(n_qubits))
        else:
            a, b = rng.sample(range(n_qubits), 2)
            c.append("cx", (a, b))
    return c


def _pass_runner(pass_name: str, reference: bool):
    """Build the timed closure factory for one pass/engine pairing."""

    def make(circuit):
        from repro.circuits.dag import CircuitDAG
        from repro.circuits.dag_table import DAGTable
        from repro.optimizers.columnar import (
            cancel_inverses_table,
            collect_two_qubit_blocks_table,
            fold_phases_table,
            merge_rotations_table,
            optimize_table,
        )
        from repro.optimizers.dag_passes import (
            cancel_inverses_reference,
            collect_two_qubit_blocks_reference,
            fold_phases_dag_reference,
            merge_rotations_reference,
            optimize_dag_reference,
        )

        ref_fns = {
            "cancel_inverses": cancel_inverses_reference,
            "merge_rotations": merge_rotations_reference,
            "fold_phases": fold_phases_dag_reference,
            "collect_blocks": collect_two_qubit_blocks_reference,
            "optimize_fixpoint": optimize_dag_reference,
        }
        table_fns = {
            "cancel_inverses": cancel_inverses_table,
            "merge_rotations": merge_rotations_table,
            "fold_phases": fold_phases_table,
            "collect_blocks": collect_two_qubit_blocks_table,
            "optimize_fixpoint": optimize_table,
        }

        def _count(result):
            if pass_name == "collect_blocks":
                return {"blocks": len(result)}
            if pass_name == "optimize_fixpoint":
                return {"removed": result.removed, "rounds": result.rounds}
            if isinstance(result, tuple):  # (removed, touched_wires)
                return {"removed": result[0]}
            return {"removed": result}

        if reference:
            fn = ref_fns[pass_name]

            def run():
                # End-to-end as optimize_circuit drives it: IR build,
                # pass, linearize.  Mutating passes force a rebuild per
                # repeat either way.
                dag = CircuitDAG.from_circuit(circuit)
                result = fn(dag)
                dag.to_circuit()
                return _count(result)

        else:
            fn = table_fns[pass_name]

            def run():
                table = DAGTable.from_circuit(circuit)
                result = fn(table)
                table.to_circuit()
                return _count(result)

        return run

    return make


def _pass_spec(
    pass_name: str, n_qubits: int, n_gates: int, reference: bool
) -> BenchSpec:
    make = _pass_runner(pass_name, reference)

    def setup():
        circuit = _optimizer_workload(n_qubits, n_gates, seed=23)
        return make(circuit)

    suffix = "/reference" if reference else ""
    return BenchSpec(
        name=f"dag/{pass_name}/{n_qubits}q{suffix}",
        params={
            "n_qubits": n_qubits,
            "n_gates": n_gates,
            "reference": reference,
            "seed": 23,
        },
        setup=setup,
    )


#: Every columnar/reference DAG-pass pairing benchmarked.
_PASS_NAMES = (
    "cancel_inverses",
    "merge_rotations",
    "fold_phases",
    "collect_blocks",
    "optimize_fixpoint",
)


def specs(quick: bool) -> list[BenchSpec]:
    out = []
    sizes = ((24, 800),) if quick else ((24, 8000), (96, 8000))
    for pass_name in _PASS_NAMES:
        for n_qubits, n_gates in sizes:
            out.append(
                _pass_spec(pass_name, n_qubits, n_gates, reference=False)
            )
            out.append(
                _pass_spec(pass_name, n_qubits, n_gates, reference=True)
            )
    return out


def run_specs(
    specs: list[BenchSpec],
    warmup: int,
    repeats: int,
    progress: Callable[[str], None] | None = None,
) -> list[BenchResult]:
    """Time every columnar entry interleaved with its reference twin.

    :func:`specs` lists each columnar entry right before its twin; both
    thunks run once per round, so a load spike on a shared machine
    slows the two sides of a speedup together.
    """
    results = []
    for kernel, reference in zip(specs[::2], specs[1::2]):
        results.extend(run_interleaved([kernel, reference], warmup, repeats))
        if progress is not None:
            progress(
                f"  {kernel.name}: {results[-2].median_s:.4f}s median, "
                f"reference {results[-1].median_s:.4f}s"
            )
    return results


def finalize(results: list[BenchResult]) -> None:
    """Derive each pair's columnar-vs-reference speedup.

    Pairs ``<name>`` with ``<name>/reference`` and takes the median over
    rounds of the reference time divided by the columnar time of the
    same round (:func:`run_specs` times both in every round), recording
    ``speedup_vs_reference`` on the columnar entry.  Each spec's
    ``run()`` is exactly the end-to-end pass.
    """
    by_name = {r.name: r for r in results}
    for name, result in by_name.items():
        ref = by_name.get(f"{name}/reference")
        if ref is None:
            continue
        ratios = [r / k for k, r in zip(result.times_s, ref.times_s)]
        result.extra["speedup_vs_reference"] = round(statistics.median(ratios), 2)
