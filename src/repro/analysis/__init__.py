"""Static analysis: IR verification, pass contracts, project linting.

Two halves, per the roadmap's service-grade correctness push:

* Runtime IR checkers (:func:`verify_circuit`, :func:`verify_table`,
  :func:`check_basis`, :func:`check_connectivity`,
  :func:`check_schedule`) and the :class:`ContractChecker` that
  ``PassManager(validate=...)`` drives after every pass.
* A stdlib-:mod:`ast` project linter (``python -m repro.analysis.lint``)
  enforcing repo-specific source rules ruff cannot express.

:mod:`repro.analysis.atomic_io` is the shared tmp + ``os.replace``
write helper the atomic-write lint rule points offenders at.
"""

from repro.analysis.atomic_io import atomic_write_json, atomic_write_text
from repro.analysis.contracts import (
    CONTRACT_VOCABULARY,
    VALIDATE_MODES,
    ContractChecker,
    contract_of,
    verify_compiled,
)
from repro.analysis.verify import (
    BASIS_SETS,
    UNITARY_CHECK_MAX_QUBITS,
    VerificationError,
    check_basis,
    check_connectivity,
    check_schedule,
    describe_gate,
    resolve_basis,
    unitaries_equivalent,
    verify_circuit,
    verify_table,
)

__all__ = [
    "BASIS_SETS",
    "CONTRACT_VOCABULARY",
    "ContractChecker",
    "UNITARY_CHECK_MAX_QUBITS",
    "VALIDATE_MODES",
    "VerificationError",
    "atomic_write_json",
    "atomic_write_text",
    "check_basis",
    "check_connectivity",
    "check_schedule",
    "contract_of",
    "describe_gate",
    "resolve_basis",
    "unitaries_equivalent",
    "verify_circuit",
    "verify_compiled",
    "verify_table",
]
