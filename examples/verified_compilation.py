"""Contract-verified compilation: a broken custom pass caught in the act.

The :mod:`repro.analysis` layer puts machine-checked contracts on every
compilation step.  This example compiles a QFT onto a 2x3 grid with
``compile_circuit(target=..., validate="full")`` — the routed circuit,
every lowering pass boundary and the final Clifford+T output verified —
and then deliberately drops a buggy custom pass into a lowering
pipeline to show the resulting :class:`~repro.analysis.VerificationError`
naming the pass, the offending gate, and the violated contract, instead
of a silently wrong circuit three stages later.  Run with:

    PYTHONPATH=src python examples/verified_compilation.py
"""

from repro.analysis import VerificationError
from repro.bench_circuits import ft_algorithms as ft
from repro.circuits import Circuit
from repro.pipeline import DagOptimize, MergeRuns, PassManager, compile_circuit
from repro.pipeline.passes import Pass
from repro.target import on_coupling_edges, parse_target

TARGET = parse_target("grid:2x3")


def verified_compile():
    """The happy path: full contract verification adds only checks."""
    qft = ft.qft(4)
    result = compile_circuit(
        qft, workflow="gridsynth", eps=0.01,
        target=TARGET, optimization_level=3, validate="full",
    )
    assert on_coupling_edges(result.circuit, TARGET)
    print(f"qft_n4 on {TARGET.name}: verified at every compilation stage")
    print(f"  T count  : {result.t_count}")
    print(f"  swaps    : {result.routing.metrics.swaps_inserted}")
    print(f"  makespan : {result.makespan:g}")


class DropEveryOtherCX(Pass):
    """A 'peephole optimization' that is simply wrong.

    Claims to preserve the unitary while deleting every second CX —
    the kind of bug a plausible-looking rewrite ships with.
    """

    name = "drop_every_other_cx"
    ensures = ("unitary_preserving",)

    def run(self, circuit):
        out = Circuit(circuit.n_qubits, name=circuit.name)
        seen_cx = 0
        for g in circuit.gates:
            if g.name == "cx":
                seen_cx += 1
                if seen_cx % 2 == 0:
                    continue
            out.gates.append(g)
        return out


def broken_pass_is_caught():
    """A lowering pipeline with the buggy pass spliced in."""
    qft = ft.qft(4)
    pipeline = PassManager(
        [
            MergeRuns(),
            DropEveryOtherCX(),  # <- the bug
            DagOptimize(),
        ],
        validate="full",
    )
    try:
        pipeline.run(qft)
    except VerificationError as exc:
        print("\nbroken pass caught by validate='full':")
        print(f"  pass     : {exc.pass_name}")
        print(f"  contract : {exc.contract}")
        print(f"  error    : {exc}")
    else:
        raise SystemExit("the broken pass was NOT caught — bug!")


if __name__ == "__main__":
    verified_compile()
    broken_pass_is_caught()
