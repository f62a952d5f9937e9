"""Block resynthesis: the BQSKit-substitute workflow of Figure 12.

The circuit is greedily partitioned into two-qubit blocks; each block's
unitary is re-instantiated from scratch via the KAK decomposition into
local U3 gates plus XX/YY/ZZ interaction evolutions.  Like BQSKit's
numerical instantiation, this *regularizes* the circuit structure at the
cost of re-introducing generic rotations — three Euler angles per local
factor — which is precisely the rotation inflation the paper measures
against the trasyn workflow.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.circuit import Circuit, Gate
from repro.circuits.metrics import is_trivial_angle
from repro.linalg import zyz_angles
from repro.optimizers.kak import kak_decompose
from repro.paulis import PauliString, evolution_circuit


def partition_two_qubit_blocks(circuit: Circuit) -> list[tuple[tuple[int, int], list[Gate]]]:
    """Greedy maximal blocks: consecutive gates on one qubit pair.

    1q gates join the open block of any pair containing their qubit;
    2q gates open a new block when their pair differs from the open one.
    Returns blocks in executable order.
    """
    open_blocks: dict[tuple[int, int], list[Gate]] = {}
    order: list[tuple[int, int]] = []
    qubit_to_pair: dict[int, tuple[int, int]] = {}
    blocks: list[tuple[tuple[int, int], list[Gate]]] = []

    def close(pair: tuple[int, int]) -> None:
        gates = open_blocks.pop(pair, None)
        if gates:
            blocks.append((pair, gates))
            order.remove(pair)
        for q in pair:
            if qubit_to_pair.get(q) == pair:
                del qubit_to_pair[q]

    for g in circuit.gates:
        if len(g.qubits) == 2:
            pair = tuple(sorted(g.qubits))
            for q in pair:
                other = qubit_to_pair.get(q)
                if other is not None and other != pair:
                    close(other)
            if pair not in open_blocks:
                open_blocks[pair] = []
                order.append(pair)
                for q in pair:
                    qubit_to_pair[q] = pair
            open_blocks[pair].append(g)
        else:
            q = g.qubits[0]
            pair = qubit_to_pair.get(q)
            if pair is None:
                # Standalone 1q gate: park it in a degenerate block.
                blocks.append(((q, q), [g]))
            else:
                open_blocks[pair].append(g)
    for pair in list(order):
        close(pair)
    return blocks


def resynthesize(circuit: Circuit, dag_blocks: bool = False) -> Circuit:
    """Re-instantiate every two-qubit block through KAK (BQSKit analogue).

    ``dag_blocks=True`` collects blocks through the dependency-aware
    traversal of
    :func:`repro.optimizers.columnar.collect_two_qubit_blocks_table`,
    which groups same-pair gates that the flat gate list interleaves
    with independent wires — fewer, larger blocks, same unitary.
    """
    if dag_blocks:
        from repro.circuits.dag_table import DAGTable
        from repro.optimizers.columnar import collect_two_qubit_blocks_table

        blocks = collect_two_qubit_blocks_table(DAGTable.from_circuit(circuit))
    else:
        blocks = partition_two_qubit_blocks(circuit)
    out = Circuit(circuit.n_qubits, name=circuit.name + "_resynth")
    rng = np.random.default_rng(11)
    for pair, gates in blocks:
        if pair[0] == pair[1]:
            _emit_local(out, _product_1q(gates), pair[0])
            continue
        block = Circuit(2)
        remap = {pair[0]: 0, pair[1]: 1}
        for g in gates:
            block.gates.append(
                Gate(g.name, tuple(remap[q] for q in g.qubits), g.params)
            )
        u = block.unitary()
        try:
            d = kak_decompose(u, rng)
        except ArithmeticError:
            for g in gates:  # fall back to the original gates
                out.gates.append(g)
            continue
        _emit_local(out, d.b1, pair[0])
        _emit_local(out, d.b2, pair[1])
        for coeff, ops in zip(d.coefficients, ("XX", "YY", "ZZ")):
            if abs(coeff) < 1e-10:
                continue
            label = ["I", "I"]
            label[0], label[1] = ops[0], ops[1]
            sub = evolution_circuit(PauliString("".join(label)), -2.0 * coeff)
            for g in sub.gates:
                out.gates.append(
                    Gate(g.name, tuple(pair[q] for q in g.qubits), g.params)
                )
        _emit_local(out, d.a1, pair[0])
        _emit_local(out, d.a2, pair[1])
    return out


def _product_1q(gates: list[Gate]) -> np.ndarray:
    m = np.eye(2, dtype=complex)
    for g in gates:
        m = g.matrix() @ m
    return m


def _emit_local(out: Circuit, u: np.ndarray, qubit: int) -> None:
    theta, phi, lam, _ = zyz_angles(u)
    if (
        abs(theta) < 1e-10
        and is_trivial_angle(phi + lam)
        and abs(np.remainder(phi + lam, 2 * np.pi)) < 1e-10
    ):
        return
    out.u3(theta, phi, lam, qubit)
