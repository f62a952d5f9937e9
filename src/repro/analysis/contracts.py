"""Pass contracts: what each pipeline rewrite ensures.

Every :class:`repro.pipeline.Pass` declares a contract through its
``ensures`` class attribute, drawn from a small vocabulary:

``structural``
    The circuit is well-formed (:func:`repro.analysis.verify_circuit`,
    and for DAG passes :func:`repro.analysis.verify_table` on the
    rewritten columns).  Every pass implicitly ensures this; the
    checker enforces it.
``basis``
    Every gate is drawn from a declared vocabulary.  A pass ensuring
    ``basis`` names the vocabulary in its ``basis`` attribute (a
    :data:`repro.analysis.verify.BASIS_SETS` key or iterable of gate
    names).  Once established, the property is *persistent*: it is
    re-checked after every later pass until another basis-ensuring
    pass replaces the vocabulary.
``unitary_preserving``
    The pass's output implements the same unitary as its input up to
    global phase.  Transient (checked at the ensuring pass's own
    boundary only) and size-gated by
    :data:`repro.analysis.verify.UNITARY_CHECK_MAX_QUBITS`.

Passes never route, so connectivity is no pass contract:
:func:`repro.analysis.check_connectivity` checks it on the routed and
final circuits of :func:`repro.pipeline.compile_circuit` (through
:func:`verify_compiled`) and in the CLI ``verify`` command.

:class:`ContractChecker` is the stateful verifier a
``PassManager(validate=...)`` run instantiates: ``"structural"`` mode
runs the cheap structural check after every pass; ``"full"`` mode
additionally enforces ensures clauses, the persistent basis property,
table column consistency for DAG passes, and unitary preservation.
"""

from __future__ import annotations

from typing import Iterable

from repro.analysis.verify import (
    VerificationError,
    check_basis,
    check_connectivity,
    resolve_basis,
    unitaries_equivalent,
    verify_circuit,
    verify_table,
    UNITARY_CHECK_MAX_QUBITS,
)
from repro.circuits import Circuit

#: The contract vocabulary passes may draw ``ensures`` from.
CONTRACT_VOCABULARY = frozenset({"structural", "basis", "unitary_preserving"})

#: PassManager validation modes.
VALIDATE_MODES = ("off", "structural", "full")


def contract_of(p) -> tuple[str, ...]:
    """The validated ``ensures`` contract of one pass."""
    ensures = tuple(getattr(p, "ensures", ()))
    for prop in ensures:
        if prop not in CONTRACT_VOCABULARY:
            raise VerificationError(
                f"pass {getattr(p, 'name', p)!r} declares unknown "
                f"contract {prop!r} (vocabulary: "
                f"{sorted(CONTRACT_VOCABULARY)})",
                contract=prop,
            )
    return ensures


class ContractChecker:
    """Per-run contract verification state for a pipeline.

    One instance per ``PassManager.run_detailed`` call (the manager
    itself stays stateless and thread-shareable).  The checker tracks
    the basis vocabulary an earlier pass established and re-verifies
    it at every later pass boundary, attributing any violation to the
    pass that broke the contract.
    """

    def __init__(self, level: str):
        if level not in VALIDATE_MODES:
            raise ValueError(
                f"validate must be one of {VALIDATE_MODES}, got {level!r}"
            )
        self.level = level
        #: The basis vocabulary an earlier pass established, if any.
        self.basis = None

    @property
    def enabled(self) -> bool:
        return self.level != "off"

    @property
    def full(self) -> bool:
        return self.level == "full"

    # -- hooks driven by PassManager.run_detailed ---------------------------
    def check_input(self, circuit: Circuit) -> None:
        """Verify the pipeline input before any pass runs."""
        if not self.enabled:
            return
        verify_circuit(circuit)

    def check_table(self, p, table) -> None:
        """Verify a DAG pass's mutated :class:`DAGTable`.

        Called by ``PassManager`` between ``run_table`` and
        ``to_circuit`` so corrupted columns are caught — and attributed
        to the pass — before the linearization crashes on them or
        silently hides them.
        """
        if not self.full:
            return
        try:
            verify_table(table)
        except VerificationError as exc:
            raise exc.with_pass(p.name) from None

    def after_pass(self, p, before: Circuit, after: Circuit) -> None:
        """Verify the pass output and track a newly ensured basis."""
        if not self.enabled:
            return
        try:
            verify_circuit(after)
        except VerificationError as exc:
            raise exc.with_pass(p.name) from None
        if not self.full:
            return
        ensures = contract_of(p)
        # Transient contract: the pass's own rewrite preserved the
        # circuit unitary (size-gated).
        if (
            "unitary_preserving" in ensures
            and before.n_qubits == after.n_qubits
            and after.n_qubits <= UNITARY_CHECK_MAX_QUBITS
        ):
            if not unitaries_equivalent(before, after):
                raise VerificationError(
                    "output unitary differs from input (up to global phase)",
                    contract="unitary_preserving",
                    pass_name=p.name,
                )
        if "basis" in ensures:
            self.basis = resolve_basis(getattr(p, "basis", "clifford_t"))
        # The basis must survive every pass that runs after the one
        # establishing it.
        self._check_basis(after, p.name)

    def final(self, circuit: Circuit) -> None:
        """End-of-pipeline checks on the final output."""
        if not self.full:
            return
        self._check_basis(circuit, pass_name=None)

    # -- internals ----------------------------------------------------------
    def _check_basis(self, circuit: Circuit, pass_name: str | None) -> None:
        if self.basis is None:
            return
        try:
            check_basis(circuit, self.basis)
        except VerificationError as exc:
            raise (exc.with_pass(pass_name) if pass_name else exc) from None


def verify_compiled(
    circuit: Circuit,
    target=None,
    *,
    level: str = "structural",
    basis: str | Iterable[str] | None = None,
) -> None:
    """One-shot verification of a finished compilation result.

    The check :func:`repro.pipeline.compile_circuit` applies to its
    output (and the core of the CLI ``verify`` command): structural
    always, plus basis-vocabulary and directed connectivity compliance
    at ``level="full"`` when a ``basis``/``target`` is given.
    """
    if level == "off":
        return
    if level not in VALIDATE_MODES:
        raise ValueError(
            f"validate must be one of {VALIDATE_MODES}, got {level!r}"
        )
    verify_circuit(circuit)
    if level != "full":
        return
    if basis is not None:
        check_basis(circuit, basis)
    if target is not None:
        check_connectivity(circuit, target)
