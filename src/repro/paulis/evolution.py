"""Compiling exp(-i theta/2 P) terms into CX + 1q circuits.

This is the Rustiq-substitute Pauli-network compiler: each term becomes
basis changes (H for X, Sdg-H for Y), a CNOT parity ladder onto a pivot
qubit, one Rz, and the inverse ladder.  A greedy term ordering groups
terms with shared support so the transpiler's merge/commute passes can
fuse the resulting rotations — the merging opportunity the paper's U3
workflow exploits on quantum Hamiltonians.
"""

from __future__ import annotations

from repro.circuits import Circuit
from repro.paulis.pauli import PauliString


def evolution_circuit(
    pauli: PauliString, theta: float, circuit: Circuit | None = None
) -> Circuit:
    """Append exp(-i theta/2 * P) to ``circuit`` (created if omitted)."""
    if circuit is None:
        circuit = Circuit(pauli.n_qubits)
    if pauli.n_qubits > circuit.n_qubits:
        raise ValueError("circuit too small for Pauli string")
    support = pauli.support
    if not support:
        return circuit  # global phase only
    if len(support) == 1:
        # Weight-1 terms compile to native axis rotations (as Rustiq
        # emits them) — the form the commutation/merge passes exploit.
        q = support[0]
        axis = pauli.label[q]
        if axis == "X":
            circuit.rx(theta, q)
        elif axis == "Y":
            circuit.ry(theta, q)
        else:
            circuit.rz(theta, q)
        return circuit
    # Basis changes into the Z eigenbasis.
    for q in support:
        c = pauli.label[q]
        if c == "X":
            circuit.h(q)
        elif c == "Y":
            # Rotate Y to Z: Sdg then H maps the Y axis onto Z.
            circuit.sdg(q)
            circuit.h(q)
    # Pivot on the lowest support qubit: in ascending-chain term orders
    # this leaves each wire's last gadget touch on the CX *target* side,
    # where axis rotations commute in for merging.
    pivot = support[0]
    for q in support[1:]:
        circuit.cx(q, pivot)
    circuit.rz(theta, pivot)
    for q in reversed(support[1:]):
        circuit.cx(q, pivot)
    for q in support:
        c = pauli.label[q]
        if c == "X":
            circuit.h(q)
        elif c == "Y":
            circuit.h(q)
            circuit.s(q)
    return circuit


def _greedy_order(terms: list[tuple[PauliString, float]]) -> list[tuple[PauliString, float]]:
    """Order terms so consecutive ones share support (more merges).

    Each step takes the remaining term sharing the most qubits with the
    last one, then the most (qubit, axis) pairs; ties go to the earliest.
    Both sets are built once per term.
    """
    keyed = [
        (
            frozenset(item[0].support),
            frozenset((q, item[0].label[q]) for q in item[0].support),
            item,
        )
        for item in terms
    ]
    if not keyed:
        return []
    ordered = [keyed.pop(0)]
    while keyed:
        support, axes, _ = ordered[-1]
        scores = [(len(support & s), len(axes & a)) for s, a, _ in keyed]
        ordered.append(keyed.pop(scores.index(max(scores))))
    return [item for _, _, item in ordered]


def trotter_circuit(
    terms: list[tuple[PauliString, float]],
    time: float = 1.0,
    steps: int = 1,
    n_qubits: int | None = None,
    order_terms: bool = True,
) -> Circuit:
    """First-order Trotterization of H = sum_j c_j P_j.

    Each step applies ``exp(-i c_j (time/steps) P_j)`` for every term.
    The per-term rotation angle passed to Rz is ``2 c_j time / steps``
    (matching exp(-i theta/2 Z) conventions).
    """
    if not terms:
        raise ValueError("empty Hamiltonian")
    n = n_qubits or terms[0][0].n_qubits
    circuit = Circuit(n)
    ordered = _greedy_order(terms) if order_terms else list(terms)
    dt = time / steps
    for _ in range(steps):
        for pauli, coeff in ordered:
            evolution_circuit(pauli, 2.0 * coeff * dt, circuit)
    return circuit
