"""Transpiler passes over the circuit IR (the Qiskit-transpiler substitute).

The paper's central compilation question — *which IR is better,
Clifford+Rz or Clifford+U3?* — is answered by combining these passes:

* :func:`merge_1q_runs` fuses maximal runs of single-qubit gates into
  one U3 (the merge opportunities Section 3.4 describes),
* :func:`commute_rotations` moves Rz through CX controls and Rx through
  CX targets so that previously-separated rotations become adjacent
  (the optional commutation pass of Figure 6),
* :func:`decompose_to_rz_basis` lowers every 1q unitary to the
  ``Rz . H . Rz . H . Rz`` pattern of Equation (1),
* :func:`transpile` bundles them into optimization levels 0-3 for both
  target IRs.
"""

from __future__ import annotations

import math

import numpy as np

from repro.circuits.circuit import (
    ONE_QUBIT_GATES,
    Circuit,
    Gate,
)
from repro.circuits.metrics import is_trivial_angle
from repro.linalg import zyz_angles

_SELF_INVERSE = frozenset({"h", "x", "y", "z", "cx", "cz", "swap"})
_INVERSE_PAIRS = {("s", "sdg"), ("sdg", "s"), ("t", "tdg"), ("tdg", "t")}
_QUARTER = math.pi / 4.0


def merge_1q_runs(circuit: Circuit, drop_identities: bool = True) -> Circuit:
    """Fuse maximal runs of adjacent 1q gates per wire into single U3 gates."""
    out = Circuit(circuit.n_qubits, name=circuit.name)
    pending: dict[int, np.ndarray] = {}

    def flush(q: int) -> None:
        m = pending.pop(q, None)
        if m is None:
            return
        gate = _matrix_to_gate(m, q, drop_identities)
        if gate is not None:
            out.gates.append(gate)

    for g in circuit.gates:
        if g.name in ONE_QUBIT_GATES:
            q = g.qubits[0]
            acc = pending.get(q)
            pending[q] = g.matrix() @ acc if acc is not None else g.matrix()
        else:
            for q in g.qubits:
                flush(q)
            out.gates.append(g)
    for q in sorted(pending):
        flush(q)
    return out


def _matrix_to_gate(m: np.ndarray, q: int, drop_identity: bool) -> Gate | None:
    theta, phi, lam, _ = zyz_angles(m)
    if drop_identity and abs(theta) < 1e-12 and is_trivial_angle(phi + lam):
        # The merged run is a pure phase times a power of S — but only a
        # *global* phase can be dropped outright.
        if abs(math.remainder(phi + lam, 2 * math.pi)) < 1e-12:
            return None
    return Gate("u3", (q,), (theta, phi, lam))


def commute_rotations(circuit: Circuit) -> Circuit:
    """Relocate axis rotations rightward to meet their merge partners.

    Each Rz/Rx travels forward past every gate on *other* wires and
    every two-qubit gate it commutes with on its own wire (Rz past CX
    controls and CZ; Rx past CX targets), stopping just before the first
    blocking gate on its wire.  When that blocker is a single-qubit
    gate, the pair becomes adjacent on the wire and a subsequent merge
    pass fuses them — the commutation pass of Section 3.4 / Figure 6.
    The circuit unitary is preserved exactly.
    """
    out = list(circuit.gates)
    # Right-to-left sweep: each rotation is relocated exactly once, and
    # moves only affect indices to its right, so the pass terminates in
    # a single pass with no displacement cycles.
    for i in range(len(out) - 1, -1, -1):
        g = out[i]
        if g.name not in ("rx", "rz"):
            continue
        q = g.qubits[0]
        j = i + 1
        blocked_on_wire = False
        while j < len(out):
            other = out[j]
            if q in other.qubits:
                if len(other.qubits) == 1 or not _rotation_commutes(g, other):
                    blocked_on_wire = True
                    break
            j += 1
        if blocked_on_wire and j > i + 1:
            out.pop(i)
            out.insert(j - 1, g)
    out = _relocate_left(out)
    return Circuit(circuit.n_qubits, out, circuit.name)


def _relocate_left(out: list[Gate]) -> list[Gate]:
    """Mirror sweep: move rotations leftward toward a 1q merge partner.

    Only rotations that did *not* end up adjacent to a same-wire 1q gate
    on their right are moved, so the leftward pass never undoes a merge
    the rightward pass arranged.
    """
    out = list(out)
    for i in range(len(out)):
        g = out[i]
        if g.name not in ("rx", "rz"):
            continue
        q = g.qubits[0]
        # Skip when the next same-wire gate to the right is 1q (mergeable).
        partner_right = False
        for k in range(i + 1, len(out)):
            if q in out[k].qubits:
                partner_right = len(out[k].qubits) == 1
                break
        if partner_right:
            continue
        j = i - 1
        blocked_on_wire = False
        while j >= 0:
            other = out[j]
            if q in other.qubits:
                if len(other.qubits) == 1 or not _rotation_commutes(g, other):
                    blocked_on_wire = True
                    break
            j -= 1
        if blocked_on_wire and j < i - 1 and len(out[j].qubits) == 1:
            out.pop(i)
            out.insert(j + 1, g)
    return out


def _rotation_commutes(rot: Gate, other: Gate) -> bool:
    """Does the axis rotation commute with a 2q gate sharing its wire?"""
    q = rot.qubits[0]
    if rot.name == "rz" and other.name == "cx":
        return q == other.qubits[0]  # control commutes with Rz
    if rot.name == "rx" and other.name == "cx":
        return q == other.qubits[1]  # target commutes with Rx
    if rot.name == "rz" and other.name == "cz":
        return True
    return False


def cancel_inverse_pairs(circuit: Circuit, max_passes: int = 8) -> Circuit:
    """Remove adjacent self-inverse duplicates and inverse pairs."""
    gates = list(circuit.gates)
    for _ in range(max_passes):
        changed = False
        out: list[Gate] = []
        i = 0
        while i < len(gates):
            if i + 1 < len(gates) and _is_inverse_pair(gates[i], gates[i + 1]):
                i += 2
                changed = True
                continue
            out.append(gates[i])
            i += 1
        gates = out
        if not changed:
            break
    return Circuit(circuit.n_qubits, gates, circuit.name)


def _is_inverse_pair(a: Gate, b: Gate) -> bool:
    if a.qubits != b.qubits:
        return False
    if a.name == b.name and a.name in _SELF_INVERSE:
        return True
    if (a.name, b.name) in _INVERSE_PAIRS:
        return True
    if a.name == b.name and a.name in ("rx", "ry", "rz"):
        return abs(math.remainder(a.params[0] + b.params[0], 2 * math.pi)) < 1e-12
    return False


def snap_trivial_rotations(circuit: Circuit, tol: float = 1e-9) -> Circuit:
    """Round rotation angles that are within ``tol`` of pi/4 multiples."""
    out = Circuit(circuit.n_qubits, name=circuit.name)
    for g in circuit.gates:
        if g.name in ("rx", "ry", "rz"):
            theta = g.params[0]
            snapped = _QUARTER * round(theta / _QUARTER)
            if abs(math.remainder(theta - snapped, 2 * math.pi)) <= tol:
                theta = snapped
            out.gates.append(Gate(g.name, g.qubits, (theta,)))
        else:
            out.gates.append(g)
    return out


def decompose_to_rz_basis(circuit: Circuit) -> Circuit:
    """Lower every 1q gate to {H, Rz} + discrete Cliffords (Equation (1)).

    Discrete 1q gates pass through untouched; rz stays; rx/ry/u3 become
    ``Rz(lam - pi/2) -> H -> Rz(theta) -> H -> Rz(phi + pi/2)`` in time
    order, with trivial flanking rotations snapped and dropped.
    """
    out = Circuit(circuit.n_qubits, name=circuit.name)
    for g in circuit.gates:
        if g.name in ("u3", "rx", "ry"):
            theta, phi, lam, _ = zyz_angles(g.matrix())
            q = g.qubits[0]
            _emit_rz(out, lam - math.pi / 2, q)
            out.h(q)
            _emit_rz(out, theta, q)
            out.h(q)
            _emit_rz(out, phi + math.pi / 2, q)
        elif g.name == "rz":
            _emit_rz(out, g.params[0], g.qubits[0])
        else:
            out.gates.append(g)
    return out


def _emit_rz(circuit: Circuit, theta: float, q: int) -> None:
    theta = math.remainder(theta, 4 * math.pi)
    if abs(math.remainder(theta, 2 * math.pi)) < 1e-12:
        return
    circuit.rz(theta, q)


def transpile(
    circuit: Circuit,
    basis: str = "u3",
    optimization_level: int = 1,
    commutation: bool = False,
) -> Circuit:
    """Lower ``circuit`` to the chosen IR at an optimization level (0-4).

    ``basis='u3'`` produces CX+U3 (the trasyn workflow input);
    ``basis='rz'`` produces CX+H+Rz (the gridsynth workflow input).
    ``commutation`` additionally runs the Rz/Rx-through-CX pass before
    merging, which is where the U3 IR gains most (Figure 6).  Level 4
    extends the paper's level 3 with the commutation-aware DAG fixpoint
    (cancel inverses / merge rotations / fold phases) of
    :mod:`repro.optimizers.columnar`.

    The lowering is connectivity-free; to compile against a hardware
    target use :func:`repro.pipeline.compile_circuit`, which routes
    before lowering and reports the swap count and output permutation.

    The pass sequence per level lives in
    :mod:`repro.pipeline.presets`; this function is sugar for
    ``preset_pipeline(basis, optimization_level, commutation).run(...)``,
    which also takes a ``validate`` mode for contract checks between
    passes.
    """
    # Imported lazily: repro.pipeline wraps this module's pass functions.
    from repro.pipeline.presets import preset_pipeline

    return preset_pipeline(basis, optimization_level, commutation).run(
        circuit
    )


def _isolate_1q(circuit: Circuit) -> Circuit:
    """Convert each 1q gate to U3 individually (no fusion, level 0)."""
    out = Circuit(circuit.n_qubits, name=circuit.name)
    for g in circuit.gates:
        if g.name in ONE_QUBIT_GATES and g.name != "u3":
            theta, phi, lam, _ = zyz_angles(g.matrix())
            out.gates.append(Gate("u3", g.qubits, (theta, phi, lam)))
        else:
            out.gates.append(g)
    return out
