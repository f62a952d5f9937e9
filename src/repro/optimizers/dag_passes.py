"""Commutation-aware DAG optimization: the production driver and its oracles.

Where the list-based passes of :mod:`repro.transpiler.passes` see only
textual adjacency, the DAG passes see *wire* adjacency: two gates are
neighbors when no gate on a shared qubit separates them, no matter how
many gates on independent wires sit between them in the flat list.

:func:`optimize_circuit` is the post-synthesis optimizer behind
``optimization_level=4`` and the RQ5 comparison.  It runs
``Circuit`` → :class:`DAGTable` →
:func:`~repro.optimizers.columnar.optimize_table` → ``Circuit``; the
vectorized kernels of :mod:`repro.optimizers.columnar` are the only
production engine, and a gate outside the 16-opcode IR vocabulary
raises :class:`ValueError`.

The ``*_reference`` functions below are the original per-node loops
over :class:`~repro.circuits.dag.CircuitDAG`.  They are oracles only:
the byte-identity tests compare every kernel against its twin (same
removed gates, same fused params, same minted ids), and the ``passes``
bench gates the kernels' ``speedup_vs_reference`` on them.

* :func:`cancel_inverses_reference` — adjacent-inverse cancellation
  along wires (H·H, CX·CX, S·Sdg, Rz(a)·Rz(-a), ...) to fixpoint.
* :func:`merge_rotations_reference` — same-axis rotation merging
  (rz·rz → rz) and general u3·u3 fusion through the ZYZ decomposition.
* :func:`fold_phases_dag_reference` — parity-tracked phase folding over
  a topological traversal, commuting across independent wires.
* :func:`collect_two_qubit_blocks_reference` — dependency-aware maximal
  2q-block collection.
* :func:`optimize_dag_reference` — the rescan-everything fixpoint.

Every pass preserves the circuit unitary up to global phase.
"""

from __future__ import annotations

import math
import warnings

from repro.circuits.circuit import ROTATION_GATES, Circuit, Gate
from repro.circuits.dag import BOUNDARY, CircuitDAG, DAGNode
from repro.circuits.dag_table import DAGTable
from repro.linalg import zyz_angles
from repro.optimizers.columnar import OptimizeStats, optimize_table
from repro.optimizers.phase_folding import _PHASE_ANGLE, _emit_phase

_SELF_INVERSE = frozenset({"h", "x", "y", "z", "cx", "cz", "swap"})
_INVERSE_PAIRS = {("s", "sdg"), ("sdg", "s"), ("t", "tdg"), ("tdg", "t")}
#: 2q gates invariant under qubit exchange (CX is not).
_SYMMETRIC_2Q = frozenset({"cz", "swap"})
_AXIS_ROTATIONS = frozenset({"rx", "ry", "rz"})
_TOL = 1e-12


def _wire_successor(dag: CircuitDAG, node: DAGNode) -> DAGNode | None:
    """The single node following ``node`` on *every* one of its wires."""
    ids = {node.succs[q] for q in node.gate.qubits}
    if len(ids) != 1:
        return None
    (i,) = ids
    return None if i == BOUNDARY else dag.node(i)


def _is_inverse_pair(a: Gate, b: Gate) -> bool:
    if a.name == b.name and a.name in _SYMMETRIC_2Q:
        return set(a.qubits) == set(b.qubits)
    if a.qubits != b.qubits:
        return False
    if a.name == b.name and a.name in _SELF_INVERSE:
        return True
    if (a.name, b.name) in _INVERSE_PAIRS:
        return True
    if a.name == b.name and a.name in _AXIS_ROTATIONS:
        return abs(math.remainder(a.params[0] + b.params[0], 2 * math.pi)) < _TOL
    return False


def cancel_inverses_reference(dag: CircuitDAG) -> int:
    """Remove wire-adjacent inverse pairs (and bare identity gates).

    A pair cancels when the two nodes are adjacent on **all** wires they
    share and compose to the identity (up to global phase for
    rotations).  Removal re-exposes the spliced neighbors, so chains
    like ``H X X H`` collapse fully in one call.  Returns the number of
    gates removed.  Oracle for
    :func:`~repro.optimizers.columnar.cancel_inverses_table`.
    """
    removed = 0
    work = [n.id for n in dag.topological()]
    while work:
        i = work.pop()
        if i not in dag:
            continue
        node = dag.node(i)
        if node.gate.name == "i":
            neighbors = [p.id for p in dag.predecessors(i)]
            dag.remove_node(i)
            removed += 1
            work.extend(neighbors)
            continue
        succ = _wire_successor(dag, node)
        if succ is None or not _is_inverse_pair(node.gate, succ.gate):
            continue
        neighbors = [p.id for p in dag.predecessors(i)]
        neighbors += [s.id for s in dag.successors(succ.id) if s.id != i]
        dag.remove_node(succ.id)
        dag.remove_node(i)
        removed += 2
        work.extend(n for n in neighbors if n in dag)
    return removed


def _fuse_1q(a: Gate, b: Gate) -> Gate | None:
    """One gate equal to ``b . a`` on the wire, or None for identity."""
    if a.name == b.name and a.name in _AXIS_ROTATIONS:
        theta = math.remainder(a.params[0] + b.params[0], 2 * math.pi)
        if abs(theta) < _TOL:
            return None
        return Gate(a.name, a.qubits, (theta,))
    theta, phi, lam, _ = zyz_angles(b.matrix() @ a.matrix())
    if abs(theta) < _TOL and abs(math.remainder(phi + lam, 2 * math.pi)) < _TOL:
        return None
    return Gate("u3", a.qubits, (theta, phi, lam))


def merge_rotations_reference(dag: CircuitDAG) -> int:
    """Fuse wire-adjacent rotation pairs: rz·rz → rz, u3·u3 → u3.

    Same-axis pairs merge exactly by angle addition; mixed rotation
    pairs involving a u3 fuse through the ZYZ decomposition.  A fused
    pair that is the identity (up to global phase) disappears entirely.
    Returns the number of gates eliminated.  Oracle for
    :func:`~repro.optimizers.columnar.merge_rotations_table`.
    """
    removed = 0
    work = [n.id for n in dag.topological()]
    while work:
        i = work.pop()
        if i not in dag:
            continue
        node = dag.node(i)
        if node.gate.name not in ROTATION_GATES:
            continue
        succ = _wire_successor(dag, node)
        if succ is None or succ.gate.name not in ROTATION_GATES:
            continue
        if succ.gate.qubits != node.gate.qubits:
            continue
        same_axis = succ.gate.name == node.gate.name != "u3"
        if not same_axis and "u3" not in (node.gate.name, succ.gate.name):
            continue  # mixed axes stay (synthesis handles them better)
        fused = _fuse_1q(node.gate, succ.gate)
        dag.remove_node(succ.id)
        removed += 1
        if fused is None:
            neighbors = [p.id for p in dag.predecessors(i)]
            dag.remove_node(i)
            removed += 1
            work.extend(n for n in neighbors if n in dag)
        else:
            dag.set_gate(i, fused)
            work.append(i)
    return removed


def fold_phases_dag_reference(dag: CircuitDAG) -> int:
    """Parity-tracked phase folding over the DAG (commutation-aware).

    Diagonal phase gates (T, S, Z, daggers, Rz) rotate a *parity term*
    of the CX network; every phase landing on an already-seen parity
    merges into the first occurrence, then each accumulated angle is
    re-emitted as the minimal Clifford+T/Rz word in place.  Gates that
    break the tracking (H, Y, rx/ry/u3, cz, swap) refresh only their
    own wires — phases keep folding across independent wires.  Returns
    the number of gates eliminated (net of re-emission).

    Set-based oracle for
    :func:`~repro.optimizers.columnar.fold_phases_table`, which folds
    exactly the same phases with integer bitmasks (parity-set equality
    is bitmask equality under the shared variable numbering).
    """
    n = dag.n_qubits
    next_var = n
    parity: list[frozenset[int]] = [frozenset([q]) for q in range(n)]
    negated: list[bool] = [False] * n
    # parity term -> [slot node id, accumulated angle, negated-at-slot, qubit]
    slots: dict[frozenset[int], list] = {}
    before = len(dag)

    for node in list(dag.topological()):
        name = node.gate.name
        if name in _PHASE_ANGLE or name == "rz":
            q = node.gate.qubits[0]
            theta = _PHASE_ANGLE.get(name)
            if theta is None:
                theta = node.gate.params[0] if node.gate.params else 0.0
            if negated[q]:
                theta = -theta
            key = parity[q]
            slot = slots.get(key)
            if slot is None:
                slots[key] = [node.id, theta, negated[q], q]
            else:
                slot[1] += theta
                dag.remove_node(node.id)
            continue
        if name == "cx":
            c, t = node.gate.qubits
            parity[t] = parity[c] ^ parity[t]
            negated[t] = negated[c] ^ negated[t]
            continue
        if name == "x":
            negated[node.gate.qubits[0]] = not negated[node.gate.qubits[0]]
            continue
        if name == "i":
            continue
        for q in node.gate.qubits:
            parity[q] = frozenset([next_var])
            negated[q] = False
            next_var += 1

    for node_id, angle, negated_at_slot, q in slots.values():
        emitted = -angle if negated_at_slot else angle
        dag.substitute_1q(node_id, _emit_phase(emitted, q))
    return before - len(dag)


def collect_two_qubit_blocks_reference(
    dag: CircuitDAG,
) -> list[tuple[tuple[int, int], list[Gate]]]:
    """Dependency-aware maximal 2q blocks, in executable order.

    A modified Kahn traversal prefers, among all ready gates, one whose
    qubits lie inside the currently open pair of some wire — so gates
    of the same interaction group contiguously even when the original
    gate list interleaves them with independent wires.  The reordered
    stream (a valid topological order, hence the same circuit) is then
    partitioned by the greedy scan of
    :func:`repro.optimizers.resynth.partition_two_qubit_blocks`.  Oracle
    for :func:`~repro.optimizers.columnar.collect_two_qubit_blocks_table`.
    """
    from repro.optimizers.resynth import partition_two_qubit_blocks

    pending = {
        n.id: len({p for p in n.preds.values() if p != BOUNDARY})
        for n in dag.nodes()
    }
    # The min-scan over (fits-open-pair, id) fully determines each pick,
    # so the ready list needs no ordering of its own.
    ready = [i for i, deg in pending.items() if deg == 0]
    open_pair: dict[int, tuple[int, int]] = {}
    ordered: list[Gate] = []
    while ready:
        best = None
        for idx, i in enumerate(ready):
            qs = dag.node(i).gate.qubits
            pairs = {open_pair.get(q) for q in qs}
            fits = len(pairs) == 1 and None not in pairs and set(qs) <= set(
                next(iter(pairs))
            )
            key = (0 if fits else 1, i)
            if best is None or key < best[0]:
                best = (key, idx, i)
        _, idx, i = best
        ready.pop(idx)
        node = dag.node(i)
        ordered.append(node.gate)
        if len(node.gate.qubits) == 2:
            pair = tuple(sorted(node.gate.qubits))
            for q in pair:
                open_pair[q] = pair
        for succ in dag.successors(i):
            pending[succ.id] -= 1
            if pending[succ.id] == 0:
                ready.append(succ.id)
    reordered = Circuit(dag.n_qubits, ordered, dag.name)
    return partition_two_qubit_blocks(reordered)


def optimize_dag_reference(
    dag: CircuitDAG, max_rounds: int = 8
) -> OptimizeStats:
    """Rescan-everything fixpoint over the reference pass loops.

    Oracle for :func:`~repro.optimizers.columnar.optimize_table`, the
    dirty-wire driver; both return the same :class:`OptimizeStats`.
    """
    removed = 0
    rounds = 0
    converged = False
    per_pass = {"cancel_inverses": 0, "merge_rotations": 0, "fold_phases": 0}
    for _ in range(max_rounds):
        rounds += 1
        c = cancel_inverses_reference(dag)
        m = merge_rotations_reference(dag)
        f = fold_phases_dag_reference(dag)
        per_pass["cancel_inverses"] += c
        per_pass["merge_rotations"] += m
        per_pass["fold_phases"] += f
        step = c + m + f
        removed += step
        if step == 0:
            converged = True
            break
    if not converged:
        warnings.warn(
            f"optimize_dag_reference stopped at the round cap ({max_rounds}) before "
            "reaching a fixpoint; rerun with a higher max_rounds to finish",
            UserWarning,
            stacklevel=3,
        )
    return OptimizeStats(
        removed=removed, rounds=rounds, converged=converged, per_pass=per_pass
    )


def optimize_circuit(circuit: Circuit, max_rounds: int = 8) -> Circuit:
    """The DAG post-synthesis optimizer (unitary preserved up to phase).

    Builds the columnar IR once, iterates cancel → merge → fold with
    the dirty-wire driver :func:`~repro.optimizers.columnar.optimize_table`
    to a fixpoint, and linearizes back.  On Clifford+T synthesis output
    this strictly subsumes :func:`repro.optimizers.phase_folding.fold_phases`:
    the same parity merges plus the cancellations they unlock.  Raises
    :class:`ValueError` on a gate outside the IR vocabulary.
    """
    table = DAGTable.from_circuit(circuit)
    optimize_table(table, max_rounds=max_rounds)
    return table.to_circuit()
