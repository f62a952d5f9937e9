"""Independent output oracle for the benchmark.

Nothing here imports the package under test: gate matrices, word
products, the unitary distance and the statevector simulator are
written out again so that a bug shared by the program and its own
checks cannot pass unnoticed.

* Words (synthesis outputs, tokens in matrix-product order) pass when
  every token is a Clifford+T gate and the word's unitary lies within
  ``eps`` of the target in the paper's phase-insensitive distance.
* Circuits (compiler outputs) pass when every gate is in the Clifford+T
  basis and the noiseless infidelity against the source circuit is at
  most ``(sum of per-rotation errors) ** 2``, the bound the per-rotation
  thresholds imply.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

_R2 = 1.0 / math.sqrt(2.0)
_W = cmath.exp(1j * math.pi / 4)

WORD_GATES: dict[str, np.ndarray] = {
    "I": np.eye(2, dtype=complex),
    "H": np.array([[_R2, _R2], [_R2, -_R2]], dtype=complex),
    "S": np.diag([1, 1j]).astype(complex),
    "Sdg": np.diag([1, -1j]).astype(complex),
    "T": np.diag([1, _W]).astype(complex),
    "Tdg": np.diag([1, _W.conjugate()]).astype(complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.diag([1, -1]).astype(complex),
}

_CX = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
_CZ = np.diag([1, 1, 1, -1]).astype(complex)
_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)

#: Gates a compiled Clifford+T circuit may contain (circuit IR names).
CLIFFORD_T_NAMES = frozenset(
    {"h", "s", "sdg", "t", "tdg", "x", "y", "z", "cx", "cz", "swap"}
)

# Relative slack on threshold comparisons: words are checked in floating
# point, so a word the program accepted at exactly ``eps`` must not flip.
_REL_TOL = 1e-9


def word_unitary(tokens) -> np.ndarray:
    """Product ``tokens[0] @ tokens[1] @ ...`` of Clifford+T gates."""
    m = np.eye(2, dtype=complex)
    for tok in tokens:
        m = m @ WORD_GATES[tok]
    return m


def distance(u: np.ndarray, v: np.ndarray) -> float:
    """Phase-insensitive unitary distance sqrt(1 - |Tr(U^dag V) / N|^2)."""
    t = abs(np.trace(u.conj().T @ v)) / u.shape[0]
    return math.sqrt(max(0.0, 1.0 - t * t))


def check_word(tokens, target: np.ndarray, eps: float) -> tuple[bool, float]:
    """``(passes, distance)`` for one synthesized word against its target."""
    if any(tok not in WORD_GATES for tok in tokens):
        return False, float("inf")
    d = distance(target, word_unitary(tokens))
    return d <= eps * (1 + _REL_TOL), d


def _rz(theta: float) -> np.ndarray:
    return np.diag([cmath.exp(-0.5j * theta), cmath.exp(0.5j * theta)])


def _rx(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _u3(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [
            [c, -cmath.exp(1j * lam) * s],
            [cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c],
        ],
        dtype=complex,
    )


def gate_matrix(name: str, params=()) -> np.ndarray:
    """Local matrix of a circuit-IR gate (first qubit most significant)."""
    fixed = {
        "i": WORD_GATES["I"], "h": WORD_GATES["H"], "s": WORD_GATES["S"],
        "sdg": WORD_GATES["Sdg"], "t": WORD_GATES["T"],
        "tdg": WORD_GATES["Tdg"], "x": WORD_GATES["X"],
        "y": WORD_GATES["Y"], "z": WORD_GATES["Z"],
        "cx": _CX, "cz": _CZ, "swap": _SWAP,
    }
    if name in fixed:
        return fixed[name]
    rotations = {"rx": _rx, "ry": _ry, "rz": _rz, "u3": _u3}
    if name in rotations:
        return rotations[name](*params)
    raise ValueError(f"oracle has no matrix for gate {name!r}")


def statevector(circuit) -> np.ndarray:
    """Noiseless final state of ``circuit`` from |0...0>, as a flat vector."""
    n = circuit.n_qubits
    psi = np.zeros((2,) * n, dtype=complex)
    psi[(0,) * n] = 1.0
    for g in circuit.gates:
        if g.name == "i":
            continue
        k = len(g.qubits)
        op = gate_matrix(g.name, g.params).reshape((2,) * (2 * k))
        # Contract the gate's input legs with the state's target axes,
        # then put the output legs back where those axes were.
        psi = np.tensordot(op, psi, axes=(list(range(k, 2 * k)), list(g.qubits)))
        psi = np.moveaxis(psi, list(range(k)), list(g.qubits))
    return psi.reshape(-1)


def infidelity(circuit, reference) -> float:
    """Noiseless state infidelity ``1 - |<ref|out>|^2`` from |0...0>."""
    overlap = np.vdot(statevector(reference), statevector(circuit))
    return max(0.0, 1.0 - abs(overlap) ** 2)


def check_circuit(circuit, reference, total_error: float) -> tuple[bool, float]:
    """``(passes, infidelity)`` for one compiled circuit against its source."""
    if circuit.n_qubits != reference.n_qubits:
        return False, float("inf")
    if any(
        g.name not in CLIFFORD_T_NAMES or g.params for g in circuit.gates
    ):
        return False, float("inf")
    inf = infidelity(circuit, reference)
    return inf <= total_error**2 * (1 + _REL_TOL) + 1e-12, inf
