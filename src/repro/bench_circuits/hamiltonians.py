"""Hamiltonian-simulation benchmarks (the Hamlib analogue).

Two families, matching the paper's RQ3 categorization:

* **Quantum Hamiltonians** (X/Y/Z terms — TFIM, Heisenberg, XY chains,
  random local Paulis): transpile to Rx/Ry/Rz mixtures and benefit most
  from U3 merging.
* **Classical Hamiltonians** (Z/I terms only — Ising, MaxCut): transpile
  to Rz-only circuits, where U3 only wins when rotations straddle
  non-diagonal Cliffords.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from repro.circuits import Circuit
from repro.paulis import PauliString, trotter_circuit


def _chain_label(n: int, i: int, ops: str) -> str:
    label = ["I"] * n
    for k, op in enumerate(ops):
        label[i + k] = op
    return "".join(label)


def tfim_terms(n: int, j: float = 1.0, h: float = 0.8) -> list[tuple[PauliString, float]]:
    """Transverse-field Ising chain: -J ZZ - h X."""
    terms = [(PauliString(_chain_label(n, i, "ZZ")), -j) for i in range(n - 1)]
    terms += [(PauliString(_chain_label(n, i, "X")), -h) for i in range(n)]
    return terms


def heisenberg_terms(
    n: int, j: float = 1.0, h: float = 0.6
) -> list[tuple[PauliString, float]]:
    """Heisenberg chain with transverse field: J (XX + YY + ZZ) + h X."""
    terms = []
    for i in range(n - 1):
        for ops in ("XX", "YY", "ZZ"):
            terms.append((PauliString(_chain_label(n, i, ops)), j))
    for i in range(n):
        terms.append((PauliString(_chain_label(n, i, "X")), h))
    return terms


def xy_terms(
    n: int, j: float = 1.0, h: float = 0.6
) -> list[tuple[PauliString, float]]:
    """XY chain in a transverse Z field: J (XX + YY) + h Z."""
    terms = []
    for i in range(n - 1):
        for ops in ("XX", "YY"):
            terms.append((PauliString(_chain_label(n, i, ops)), j))
    for i in range(n):
        terms.append((PauliString(_chain_label(n, i, "Z")), h))
    return terms


def random_pauli_terms(
    n: int, n_terms: int, rng: np.random.Generator, max_weight: int = 3
) -> list[tuple[PauliString, float]]:
    """Random local Pauli Hamiltonian (molecular-fragment analogue)."""
    terms = []
    for _ in range(n_terms):
        weight = int(rng.integers(1, min(max_weight, n) + 1))
        qubits = rng.choice(n, size=weight, replace=False)
        label = ["I"] * n
        for q in qubits:
            label[q] = "XYZ"[int(rng.integers(0, 3))]
        terms.append((PauliString("".join(label)), float(rng.normal())))
    return terms


def ising_terms(
    n: int, rng: np.random.Generator, field: bool = True
) -> list[tuple[PauliString, float]]:
    """Classical Ising chain with random couplings (Z-only terms)."""
    terms = []
    for i in range(n - 1):
        terms.append((PauliString(_chain_label(n, i, "ZZ")), float(rng.normal())))
    if field:
        for i in range(n):
            terms.append((PauliString(_chain_label(n, i, "Z")), float(rng.normal())))
    return terms


def maxcut_terms(graph: nx.Graph, n: int) -> list[tuple[PauliString, float]]:
    """MaxCut cost Hamiltonian: sum over edges of ZZ (Z-only terms)."""
    terms = []
    for u, v in graph.edges:
        label = ["I"] * n
        label[u] = label[v] = "Z"
        terms.append((PauliString("".join(label)), 0.5))
    return terms


def hamiltonian_circuit(
    kind: str,
    n: int,
    rng: np.random.Generator,
    time: float = 1.0,
    steps: int = 1,
) -> Circuit:
    """Trotterized evolution circuit of a named Hamiltonian family."""
    if kind == "tfim":
        terms = tfim_terms(n)
    elif kind == "heisenberg":
        terms = heisenberg_terms(n)
    elif kind == "xy":
        terms = xy_terms(n)
    elif kind == "random_pauli":
        terms = random_pauli_terms(n, n_terms=3 * n, rng=rng)
    elif kind == "ising":
        terms = ising_terms(n, rng)
    elif kind == "maxcut":
        graph = nx.random_regular_graph(3, n, seed=int(rng.integers(2**31)))
        terms = maxcut_terms(graph, n)
    else:
        raise ValueError(f"unknown Hamiltonian kind {kind!r}")
    # Slightly irrational time step keeps rotations nontrivial.
    circuit = trotter_circuit(terms, time=time * 0.7391, steps=steps)
    circuit.name = f"{kind}_n{n}"
    return circuit
