"""Pass contracts: what each pipeline rewrite requires and ensures.

Every :class:`repro.pipeline.Pass` declares a contract through two
class attributes, ``requires`` and ``ensures``, drawn from a small
vocabulary:

``structural``
    The circuit is well-formed (:func:`repro.analysis.verify_circuit`,
    and for DAG passes :func:`repro.analysis.verify_table` on the
    rewritten columns).  Every pass implicitly requires and ensures
    this; the checker enforces it.
``basis``
    Every gate is drawn from a declared vocabulary.  A pass ensuring
    ``basis`` names the vocabulary in its ``basis`` attribute (a
    :data:`repro.analysis.verify.BASIS_SETS` key or iterable of gate
    names).  Once established, the property is *persistent*: it is
    re-checked after every later pass until another basis-ensuring
    pass replaces the vocabulary.
``connectivity``
    Every 2q gate sits on a coupling edge of the target carried by the
    ensuring pass (or the :class:`ContractChecker`'s target).  Also
    persistent.  Orientation on directed couplings is enforced from
    the first pass with ``fixes_directions = True`` onward, and again
    on the final pipeline output — routing legitimately emits
    reversed CXs that :class:`repro.pipeline.FixDirections` repairs.
``unitary_preserving``
    The pass's output implements the same unitary as its input up to
    global phase.  Transient (checked at the ensuring pass's own
    boundary only) and size-gated by
    :data:`repro.analysis.verify.UNITARY_CHECK_MAX_QUBITS`.

:class:`ContractChecker` is the stateful verifier a
``PassManager(validate=...)`` run instantiates: ``"structural"`` mode
runs the cheap structural check after every pass; ``"full"`` mode
additionally enforces requires/ensures, persistent properties, table
column consistency for DAG passes, and unitary preservation.
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

#: The contract vocabulary passes may draw ``requires``/``ensures`` from.
CONTRACT_VOCABULARY = frozenset(
    {"structural", "basis", "connectivity", "unitary_preserving"}
)

#: PassManager validation modes.
VALIDATE_MODES = ("off", "structural", "full")


def contract_of(p) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The validated ``(requires, ensures)`` contract of one pass."""
    requires = tuple(getattr(p, "requires", ()))
    ensures = tuple(getattr(p, "ensures", ()))
    for prop in (*requires, *ensures):
        if prop not in CONTRACT_VOCABULARY:
            raise VerificationError(
                f"pass {getattr(p, 'name', p)!r} declares unknown "
                f"contract {prop!r} (vocabulary: "
                f"{sorted(CONTRACT_VOCABULARY)})",
                contract=prop,
            )
    return requires, ensures


class ContractChecker:
    """Per-run contract verification state for a pipeline.

    One instance per ``PassManager.run_detailed`` call (the manager
    itself stays stateless and thread-shareable).  The checker tracks
    which persistent properties earlier passes established — and with
    what context (basis vocabulary, target) — and re-verifies them at
    every later pass boundary, attributing any violation to the pass
    that broke the contract.
    """

    def __init__(self, level: str, target=None):
        if level not in VALIDATE_MODES:
            raise ValueError(
                f"validate must be one of {VALIDATE_MODES}, got {level!r}"
            )
        self.level = level
        self.target = target
        #: Persistent properties established so far.  ``basis`` maps to
        #: its vocabulary, ``connectivity`` to the target it holds on.
        self.established: dict[str, object] = {}
        self.directions_fixed = False

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
        self.established["structural"] = True

    def before_pass(self, p, circuit: Circuit) -> None:
        """Enforce the pass's ``requires`` clause (full mode)."""
        if not self.full:
            return
        requires, _ = contract_of(p)
        for prop in requires:
            if prop == "structural":
                continue  # maintained by check_input/after_pass
            if prop not in self.established:
                raise VerificationError(
                    f"requires {prop!r} but no earlier pass established it",
                    contract=prop,
                    pass_name=p.name,
                )

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
        """Verify the pass output and update the established set."""
        if not self.enabled:
            return
        try:
            verify_circuit(after)
        except VerificationError as exc:
            raise exc.with_pass(p.name) from None
        if not self.full:
            return
        _, ensures = contract_of(p)
        # Transient contract: the pass's own rewrite preserved the
        # circuit unitary (size-gated; layout/routing passes change
        # the wire count and never declare this).
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
        # Newly established persistent properties (context from the
        # ensuring pass itself where it carries one).
        if "basis" in ensures:
            self.established["basis"] = resolve_basis(
                getattr(p, "basis", "clifford_t")
            )
        if "connectivity" in ensures:
            target = getattr(p, "target", None) or self.target
            if target is not None:
                self.established["connectivity"] = target
        if getattr(p, "fixes_directions", False):
            self.directions_fixed = True
        # Persistent properties must survive every pass that runs after
        # the one establishing them.
        self._check_persistent(after, p.name)

    def final(self, circuit: Circuit) -> None:
        """End-of-pipeline checks on the final output."""
        if not self.full:
            return
        self._check_persistent(circuit, pass_name=None, at_end=True)

    # -- internals ----------------------------------------------------------
    def _check_persistent(
        self, circuit: Circuit, pass_name: str | None, at_end: bool = False
    ) -> None:
        try:
            vocab = self.established.get("basis")
            if vocab is not None:
                check_basis(circuit, vocab)
            target = self.established.get("connectivity")
            if target is not None:
                directed = self.directions_fixed or at_end
                check_connectivity(circuit, target, directed=directed)
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
