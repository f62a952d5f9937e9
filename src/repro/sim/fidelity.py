"""Fidelity metrics: state fidelity and 1q process fidelity (RQ2/RQ4).

The process fidelity of a channel E against a target unitary U is
computed through the Choi state: F = <Phi_U| (E x I)(|Phi><Phi|) |Phi_U>
with |Phi> the maximally entangled pair and |Phi_U> = (U x I)|Phi>.
For a noiseless unitary V this reduces to |Tr(U^dag V)|^2 / 4 — the
square of the paper's trace value, tying RQ2's fidelity curve directly
to the synthesis error metric.
"""

from __future__ import annotations

import numpy as np

from repro.linalg import GATES
from repro.sim.noise import canonical_gate_name, depolarizing_kraus

# Kept in synthesis-token capitalization for backward compatibility of
# call sites; every comparison goes through canonical_gate_name so the
# circuit IR's lower-case names match too.
_T_NAMES = frozenset({"T", "Tdg"})
_PAULI_NAMES = frozenset({"I", "X", "Y", "Z"})

_CANONICAL_GATES = {canonical_gate_name(k): v for k, v in GATES.items()}


def _gate_matrix(name: str) -> np.ndarray:
    """Look up a 1q gate matrix by either token or IR capitalization."""
    try:
        return GATES[name]
    except KeyError:
        return _CANONICAL_GATES[canonical_gate_name(name)]


def state_fidelity(rho: np.ndarray, psi: np.ndarray) -> float:
    """<psi| rho |psi> for a density matrix against a pure state."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    return float(np.real(psi.conj() @ rho @ psi))


def process_fidelity_1q(choi: np.ndarray, target: np.ndarray) -> float:
    """Process fidelity from a 1q Choi state (4x4, trace 1)."""
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1.0 / np.sqrt(2.0)
    phi_u = np.kron(target, np.eye(2)) @ phi
    return float(np.real(phi_u.conj() @ choi @ phi_u))


def choi_of_sequence(
    gates,
    logical_rate: float = 0.0,
    noisy_gates: frozenset[str] = _T_NAMES,
) -> np.ndarray:
    """Choi state of a 1q gate sequence with depolarizing logical errors.

    ``gates`` is in matrix-product order (as produced by the
    synthesizers); depolarizing noise at ``logical_rate`` follows every
    gate whose name is in ``noisy_gates`` (default: T gates only — the
    paper's most conservative RQ2 model).
    """
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1.0 / np.sqrt(2.0)
    rho = np.outer(phi, phi.conj())
    kraus = depolarizing_kraus(logical_rate) if logical_rate > 0 else None
    noisy = frozenset(canonical_gate_name(n) for n in noisy_gates)
    eye = np.eye(2, dtype=complex)
    # Matrix order: gates[-1] acts first in time.
    for name in reversed(list(gates)):
        u = np.kron(_gate_matrix(name), eye)
        rho = u @ rho @ u.conj().T
        if kraus is not None and canonical_gate_name(name) in noisy:
            rho = sum(
                np.kron(k, eye) @ rho @ np.kron(k, eye).conj().T for k in kraus
            )
    return rho


def sequence_process_infidelity(
    gates,
    target: np.ndarray,
    logical_rate: float,
    noisy_gates: frozenset[str] = _T_NAMES,
) -> float:
    """1 - F_pro of a synthesized sequence under logical errors (RQ2)."""
    choi = choi_of_sequence(gates, logical_rate, noisy_gates)
    return max(0.0, 1.0 - process_fidelity_1q(choi, target))
