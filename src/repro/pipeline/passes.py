"""Composable transpiler passes and the pass manager running them.

The fixed function chain of :func:`repro.transpiler.transpile` becomes a
first-class pipeline here (the ``PassManager`` shape of Qiskit/UCC and
qibo's ``Passes``): each rewrite is a :class:`Pass` object, and a
:class:`PassManager` runs an ordered list of them while recording
per-pass wall time and gate-count metrics.  Every pass preserves the
circuit unitary (up to global phase for the decomposition passes), so
pipelines compose freely.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from repro.circuits import Circuit, DAGTable, rotation_count
from repro.optimizers.columnar import (
    cancel_inverses_table,
    fold_phases_table,
    merge_rotations_table,
    optimize_table,
)
from repro.transpiler.passes import (
    _isolate_1q,
    cancel_inverse_pairs,
    commute_rotations,
    decompose_to_rz_basis,
    merge_1q_runs,
    snap_trivial_rotations,
)


class Pass:
    """A circuit-to-circuit rewrite step.

    Subclasses implement :meth:`run`; ``name`` identifies the pass in
    metrics and reprs.  Passes must not mutate their input circuit.

    ``ensures`` declares what the pass guarantees, drawn from
    :data:`repro.analysis.CONTRACT_VOCABULARY` (``structural``,
    ``basis``, ``unitary_preserving``); a pass ensuring ``basis`` names
    its gate vocabulary in ``basis``.  ``PassManager(validate=...)``
    enforces the contracts (see :class:`repro.analysis.ContractChecker`).
    """

    name: str = "pass"
    ensures: tuple[str, ...] = ()
    #: Gate vocabulary promised by an ``ensures`` containing "basis"
    #: (a ``repro.analysis.BASIS_SETS`` key or iterable of gate names).
    basis: object = "clifford_t"

    def run(self, circuit: Circuit) -> Circuit:
        raise NotImplementedError

    def __call__(self, circuit: Circuit) -> Circuit:
        return self.run(circuit)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


@dataclass(frozen=True, repr=False)
class FunctionPass(Pass):
    """Wrap any ``Circuit -> Circuit`` callable as a pass."""

    fn: Callable[[Circuit], Circuit]
    name: str = "function"

    def run(self, circuit: Circuit) -> Circuit:
        return self.fn(circuit)


class MergeRuns(Pass):
    """Fuse maximal 1q-gate runs into single U3 gates."""

    name = "merge_1q_runs"
    ensures = ("unitary_preserving", "basis")
    basis = "u3"

    def __init__(self, drop_identities: bool = True):
        self.drop_identities = drop_identities

    def run(self, circuit: Circuit) -> Circuit:
        return merge_1q_runs(circuit, drop_identities=self.drop_identities)


class CommuteRotations(Pass):
    """Move Rz/Rx through CX to create merge opportunities."""

    name = "commute_rotations"
    ensures = ("unitary_preserving",)

    def run(self, circuit: Circuit) -> Circuit:
        return commute_rotations(circuit)


class CancelInversePairs(Pass):
    """Remove adjacent self-inverse duplicates and inverse pairs."""

    name = "cancel_inverse_pairs"
    ensures = ("unitary_preserving",)

    def __init__(self, max_passes: int = 8):
        self.max_passes = max_passes

    def run(self, circuit: Circuit) -> Circuit:
        return cancel_inverse_pairs(circuit, max_passes=self.max_passes)


class SnapTrivialRotations(Pass):
    """Round rotation angles within ``tol`` of pi/4 multiples."""

    name = "snap_trivial_rotations"
    ensures = ("unitary_preserving",)

    def __init__(self, tol: float = 1e-9):
        self.tol = tol

    def run(self, circuit: Circuit) -> Circuit:
        return snap_trivial_rotations(circuit, tol=self.tol)


class DecomposeToRzBasis(Pass):
    """Lower every 1q gate to {H, Rz} + discrete Cliffords (Eq. 1)."""

    name = "decompose_to_rz_basis"
    ensures = ("unitary_preserving", "basis")
    basis = "rz"

    def run(self, circuit: Circuit) -> Circuit:
        return decompose_to_rz_basis(circuit)


class IsolateU3(Pass):
    """Convert each 1q gate to U3 individually (level-0 lowering)."""

    name = "isolate_u3"
    ensures = ("unitary_preserving", "basis")
    basis = "u3"

    def run(self, circuit: Circuit) -> Circuit:
        return _isolate_1q(circuit)


class DAGPass(Pass):
    """A rewrite running natively on the columnar dependency IR.

    Subclasses implement :meth:`run_table` over a
    :class:`~repro.circuits.DAGTable` (one of the kernels of
    :mod:`repro.optimizers.columnar`); the base class handles the
    ``Circuit`` → table → ``Circuit`` conversion so DAG passes drop into
    any :class:`PassManager` beside the list-based ones.  A gate outside
    the table's 16-opcode vocabulary raises :class:`ValueError`.
    """

    name = "dag_pass"

    def run_table(self, table: DAGTable) -> None:
        raise NotImplementedError

    def run(self, circuit: Circuit) -> Circuit:
        table = DAGTable.from_circuit(circuit)
        self.run_table(table)
        return table.to_circuit()


class CancelInverses(DAGPass):
    """Wire-adjacent inverse cancellation on the DAG (to fixpoint)."""

    name = "cancel_inverses"
    ensures = ("unitary_preserving",)

    def run_table(self, table: DAGTable) -> None:
        cancel_inverses_table(table)


class MergeRotations(DAGPass):
    """Wire-adjacent rotation merging: rz·rz → rz, u3·u3 fusion."""

    name = "merge_rotations"
    ensures = ("unitary_preserving",)

    def run_table(self, table: DAGTable) -> None:
        merge_rotations_table(table)


class FoldPhases(DAGPass):
    """Commutation-aware parity phase folding on the DAG."""

    name = "fold_phases"
    ensures = ("unitary_preserving",)

    def run_table(self, table: DAGTable) -> None:
        fold_phases_table(table)


class DagOptimize(DAGPass):
    """The combined cancel/merge/fold fixpoint loop (level-4 core).

    After each run, ``self.stats`` holds the driver's
    :class:`~repro.optimizers.columnar.OptimizeStats` (rounds taken,
    convergence, per-pass removals); ``PassManager.run_detailed``
    surfaces it in the pass's :class:`PassMetrics` ``extra`` dict.
    """

    name = "dag_optimize"
    ensures = ("unitary_preserving",)

    def __init__(self, max_rounds: int = 8):
        self.max_rounds = max_rounds
        self.stats = None

    def run_table(self, table: DAGTable) -> None:
        self.stats = optimize_table(table, max_rounds=self.max_rounds)

    def metrics_extra(self) -> dict:
        if self.stats is None:
            return {}
        return {
            "removed": self.stats.removed,
            "rounds": self.stats.rounds,
            "converged": self.stats.converged,
        }


@dataclass(frozen=True)
class PassMetrics:
    """Timing and size accounting for one pass execution.

    ``extra`` carries pass-specific facts (e.g. ``DagOptimize`` reports
    ``removed``/``rounds``/``converged`` from its fixpoint driver).
    """

    name: str
    wall_time: float
    gates_in: int
    gates_out: int
    rotations_in: int
    rotations_out: int
    extra: dict = field(default_factory=dict)


@dataclass
class PipelineResult:
    """Output circuit of a pipeline run plus per-pass metrics."""

    circuit: Circuit
    metrics: list[PassMetrics] = field(default_factory=list)


class PassManager:
    """An ordered, user-configurable sequence of passes.

    ``PassManager([...]).run(c)`` equals composing the underlying pass
    functions left to right; :meth:`run_detailed` additionally returns
    a :class:`PassMetrics` entry per pass.

    ``validate`` turns on contract verification between passes:
    ``"off"`` (the default) adds no work, ``"structural"`` runs the
    cheap IR well-formedness check after every pass, and ``"full"``
    additionally enforces each pass's ``ensures`` contract, the
    persistent basis property, table column consistency for
    :class:`DAGPass` rewrites, and unitary preservation on small
    circuits.  Violations raise :class:`repro.analysis.VerificationError`
    naming the pass, the offending node, and the broken contract.
    """

    def __init__(self, passes: Iterable[Pass] = (), *,
                 validate: str = "off"):
        from repro.analysis.contracts import VALIDATE_MODES

        if validate not in VALIDATE_MODES:
            raise ValueError(
                f"validate must be one of {VALIDATE_MODES}, got {validate!r}"
            )
        self.passes: list[Pass] = list(passes)
        self.validate = validate

    def append(self, p: Pass) -> "PassManager":
        self.passes.append(p)
        return self

    def extend(self, passes: Iterable[Pass]) -> "PassManager":
        self.passes.extend(passes)
        return self

    def __len__(self) -> int:
        return len(self.passes)

    def __iter__(self) -> Iterator[Pass]:
        return iter(self.passes)

    def __repr__(self) -> str:
        names = ", ".join(p.name for p in self.passes)
        return f"PassManager([{names}])"

    def run(self, circuit: Circuit) -> Circuit:
        """Run every pass in order: :meth:`run_detailed`'s circuit,
        without counting gates and rotations around each pass."""
        from repro.analysis.contracts import ContractChecker

        checker = ContractChecker(self.validate)
        checker.check_input(circuit)
        work = circuit
        for p in self.passes:
            out = self._run_pass(p, work, checker)
            checker.after_pass(p, work, out)
            work = out
        checker.final(work)
        return work

    @staticmethod
    def _run_pass(p: Pass, work: Circuit, checker) -> Circuit:
        """One pass; a :class:`DAGPass` has its table checked under
        full validation."""
        if checker.full and isinstance(p, DAGPass):
            # Run the IR rewrite under the manager's control so a
            # corrupted column is caught (and attributed to the pass)
            # before linearization crashes on it or hides it.
            table = DAGTable.from_circuit(work)
            p.run_table(table)
            checker.check_table(p, table)
            return table.to_circuit()
        return p.run(work)

    def run_detailed(self, circuit: Circuit) -> PipelineResult:
        """Run every pass in order, collecting per-pass metrics.

        The manager holds no state about the run (the result carries
        the metrics, validation state lives in a per-run
        :class:`repro.analysis.ContractChecker`), so a single instance
        is safe to share across the worker threads of
        :func:`repro.pipeline.compile_batch`.
        """
        from repro.analysis.contracts import ContractChecker

        checker = ContractChecker(self.validate)
        checker.check_input(circuit)
        work = circuit
        metrics: list[PassMetrics] = []
        for p in self.passes:
            gates_in = len(work.gates)
            rot_in = rotation_count(work)
            start = time.monotonic()
            out = self._run_pass(p, work, checker)
            elapsed = time.monotonic() - start
            checker.after_pass(p, work, out)
            extra = getattr(p, "metrics_extra", None)
            metrics.append(PassMetrics(
                name=p.name,
                wall_time=elapsed,
                gates_in=gates_in,
                gates_out=len(out.gates),
                rotations_in=rot_in,
                rotations_out=rotation_count(out),
                extra=extra() if callable(extra) else {},
            ))
            work = out
        checker.final(work)
        return PipelineResult(circuit=work, metrics=metrics)
