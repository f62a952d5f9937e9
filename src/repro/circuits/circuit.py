"""A minimal but complete quantum-circuit IR (the Qiskit substitute).

Gates are stored in *time order*: ``gates[0]`` acts first, so the
circuit unitary is ``G_n ... G_2 G_1``.  The gate vocabulary covers
everything the paper's workflows touch:

* 1q discrete: ``i h s sdg t tdg x y z``
* 1q continuous: ``rx ry rz u3`` (``u3`` carries (theta, phi, lam))
* 2q: ``cx cz swap``

Anything else (Toffolis, controlled rotations, multi-controlled phase)
is decomposed by the benchmark generators before reaching the IR.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.linalg import GATES, rx, ry, rz, u3

ONE_QUBIT_GATES = frozenset(
    {"i", "h", "s", "sdg", "t", "tdg", "x", "y", "z", "rx", "ry", "rz", "u3"}
)
TWO_QUBIT_GATES = frozenset({"cx", "cz", "swap"})
ROTATION_GATES = frozenset({"rx", "ry", "rz", "u3"})

_FIXED_1Q = {
    "i": GATES["I"], "h": GATES["H"], "s": GATES["S"], "sdg": GATES["Sdg"],
    "t": GATES["T"], "tdg": GATES["Tdg"], "x": GATES["X"], "y": GATES["Y"],
    "z": GATES["Z"],
}

_CX = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
_CZ = np.diag([1, 1, 1, -1]).astype(complex)
_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)

_DAGGER_NAME = {
    "i": "i", "h": "h", "x": "x", "y": "y", "z": "z",
    "s": "sdg", "sdg": "s", "t": "tdg", "tdg": "t",
    "cx": "cx", "cz": "cz", "swap": "swap",
}


def is_idle_marker(gate: "Gate") -> bool:
    """True for the scheduler's idle-period markers.

    :func:`repro.schedule.insert_idle_markers` represents a qubit's
    idle slack as an identity gate carrying the idle duration as its
    single parameter (``Gate("i", (q,), (duration,))``).  A plain
    ``"i"`` gate built through :meth:`Circuit.append` never carries
    parameters, so the two cannot be confused.  This predicate is the
    single definition of the marker convention shared by the
    scheduler, the noise models, and the ESP cost model.
    """
    return gate.name == "i" and len(gate.params) == 1


def canonical_gate_name(name: str) -> str:
    """Canonical (lower-case) gate name shared by every table lookup.

    Circuit IR gates are lower-case (``"t"``) while synthesis token
    sequences are capitalized (``"T"``) and calibration JSON may use
    vendor spellings (``"CX"``, ``"Tdg"``); every name-keyed table in
    the noise, fidelity, target, and scheduling layers goes through
    this normalization so a gate can never silently miss its entry
    depending on which layer produced the name.
    """
    return name.lower()


@dataclass(frozen=True, slots=True)
class Gate:
    """One circuit operation: ``name`` on ``qubits`` with ``params``."""

    name: str
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()

    def matrix(self) -> np.ndarray:
        """Local matrix (2x2 or 4x4) of the gate."""
        if self.name in _FIXED_1Q:
            return _FIXED_1Q[self.name]
        if self.name == "rx":
            return rx(self.params[0])
        if self.name == "ry":
            return ry(self.params[0])
        if self.name == "rz":
            return rz(self.params[0])
        if self.name == "u3":
            return u3(*self.params)
        if self.name == "cx":
            return _CX
        if self.name == "cz":
            return _CZ
        if self.name == "swap":
            return _SWAP
        raise KeyError(f"unknown gate {self.name!r}")

    def dagger(self) -> "Gate":
        if self.name in _DAGGER_NAME:
            return Gate(_DAGGER_NAME[self.name], self.qubits, ())
        if self.name in ("rx", "ry", "rz"):
            return Gate(self.name, self.qubits, (-self.params[0],))
        if self.name == "u3":
            theta, phi, lam = self.params
            return Gate("u3", self.qubits, (-theta, -lam, -phi))
        raise KeyError(f"cannot invert gate {self.name!r}")


#: One shared frozen :class:`Gate` per parameterless ``(name, qubits)``
#: built by :meth:`Circuit.append`: Clifford+T circuits repeat a few
#: dozen distinct gates thousands of times.
_SHARED_GATES: dict[tuple[str, tuple[int, ...]], Gate] = {}


def shared_gate(name: str, qubits: tuple[int, ...]) -> Gate:
    """The shared parameterless :class:`Gate` ``(name, qubits)``, unchecked."""
    gate = _SHARED_GATES.get((name, qubits))
    if gate is None:
        gate = _SHARED_GATES[name, qubits] = Gate(name, qubits)
    return gate


@dataclass
class Circuit:
    """An ordered list of gates on ``n_qubits`` wires (time order)."""

    n_qubits: int
    gates: list[Gate] = field(default_factory=list)
    name: str = ""

    # -- construction helpers ---------------------------------------------
    def append(self, name: str, qubits, params=()) -> "Circuit":
        if isinstance(qubits, int):
            qubits = (qubits,)
        qubits = tuple(int(q) for q in qubits)
        for q in qubits:
            if not 0 <= q < self.n_qubits:
                raise ValueError(f"qubit {q} out of range for {self.n_qubits}")
        if len(set(qubits)) != len(qubits):
            raise ValueError("duplicate qubits in gate")
        expected = 1 if name in ONE_QUBIT_GATES else 2
        if name not in ONE_QUBIT_GATES and name not in TWO_QUBIT_GATES:
            raise ValueError(f"unknown gate {name!r}")
        if len(qubits) != expected:
            raise ValueError(f"{name} expects {expected} qubits")
        n_params = 3 if name == "u3" else (1 if name in ("rx", "ry", "rz") else 0)
        params = tuple(float(p) for p in params)
        if len(params) != n_params:
            raise ValueError(f"{name} expects {n_params} parameters")
        self.gates.append(Gate(name, qubits, params) if params
                          else shared_gate(name, qubits))
        return self

    def h(self, q): return self.append("h", q)
    def s(self, q): return self.append("s", q)
    def sdg(self, q): return self.append("sdg", q)
    def t(self, q): return self.append("t", q)
    def tdg(self, q): return self.append("tdg", q)
    def x(self, q): return self.append("x", q)
    def y(self, q): return self.append("y", q)
    def z(self, q): return self.append("z", q)
    def rx(self, theta, q): return self.append("rx", q, (theta,))
    def ry(self, theta, q): return self.append("ry", q, (theta,))
    def rz(self, theta, q): return self.append("rz", q, (theta,))

    def u3(self, theta, phi, lam, q):
        return self.append("u3", q, (theta, phi, lam))

    def cx(self, c, t): return self.append("cx", (c, t))
    def cz(self, a, b): return self.append("cz", (a, b))
    def swap(self, a, b): return self.append("swap", (a, b))

    def ccx(self, a, b, c) -> "Circuit":
        """Toffoli via the standard 7-T Clifford+T decomposition."""
        self.h(c)
        self.cx(b, c); self.tdg(c)
        self.cx(a, c); self.t(c)
        self.cx(b, c); self.tdg(c)
        self.cx(a, c)
        self.t(b); self.t(c)
        self.cx(a, b); self.h(c)
        self.t(a); self.tdg(b)
        self.cx(a, b)
        return self

    def cp(self, theta, a, b) -> "Circuit":
        """Controlled phase via two CX and three rotations."""
        self.rz(theta / 2, a)
        self.rz(theta / 2, b)
        self.cx(a, b)
        self.rz(-theta / 2, b)
        self.cx(a, b)
        return self

    def crz(self, theta, a, b) -> "Circuit":
        self.rz(theta / 2, b)
        self.cx(a, b)
        self.rz(-theta / 2, b)
        self.cx(a, b)
        return self

    def cry(self, theta, a, b) -> "Circuit":
        self.ry(theta / 2, b)
        self.cx(a, b)
        self.ry(-theta / 2, b)
        self.cx(a, b)
        return self

    # -- combination ---------------------------------------------------------
    def compose(self, other: "Circuit") -> "Circuit":
        if other.n_qubits > self.n_qubits:
            raise ValueError("composed circuit has more qubits")
        self.gates.extend(other.gates)
        return self

    def inverse(self) -> "Circuit":
        inv = Circuit(self.n_qubits, name=self.name + "_dg")
        inv.gates = [g.dagger() for g in reversed(self.gates)]
        return inv

    def copy(self) -> "Circuit":
        return Circuit(self.n_qubits, list(self.gates), self.name)

    def __len__(self) -> int:
        return len(self.gates)

    # -- semantics ------------------------------------------------------------
    def apply(self, state: np.ndarray) -> np.ndarray:
        """Apply the circuit to a statevector of shape (2**n,)."""
        psi = np.asarray(state, dtype=complex).reshape((2,) * self.n_qubits)
        for gate in self.gates:
            psi = _apply_gate(psi, gate, self.n_qubits)
        return psi.reshape(-1)

    def statevector(self) -> np.ndarray:
        """Run on |0...0>."""
        init = np.zeros(2**self.n_qubits, dtype=complex)
        init[0] = 1.0
        return self.apply(init)

    def unitary(self, max_qubits: int = 12) -> np.ndarray:
        """Dense circuit unitary (guarded against exponential blowups)."""
        if self.n_qubits > max_qubits:
            raise ValueError(
                f"refusing dense unitary on {self.n_qubits} qubits"
            )
        dim = 2**self.n_qubits
        out = np.eye(dim, dtype=complex)
        for col in range(dim):
            out[:, col] = self.apply(np.eye(dim, dtype=complex)[:, col])
        return out


def _apply_gate(psi: np.ndarray, gate: Gate, n: int) -> np.ndarray:
    m = gate.matrix()
    if len(gate.qubits) == 1:
        q = gate.qubits[0]
        psi = np.tensordot(m, psi, axes=([1], [q]))
        return np.moveaxis(psi, 0, q)
    a, b = gate.qubits
    m = m.reshape(2, 2, 2, 2)
    psi = np.tensordot(m, psi, axes=([2, 3], [a, b]))
    return np.moveaxis(psi, (0, 1), (a, b))
