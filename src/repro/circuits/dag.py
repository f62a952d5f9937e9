"""Dependency-DAG circuit IR: the structured view behind the optimizers.

A :class:`CircuitDAG` holds one node per gate with explicit *wire edges*:
for every qubit a gate touches, the node records the previous and next
node on that wire.  That gives O(1) predecessor/successor access, cheap
node removal/substitution (splice the wire), topological iteration, and
front-layer (ASAP) scheduling via :meth:`CircuitDAG.as_layers` — the
structure every reference pass in :mod:`repro.optimizers.dag_passes`
and every longest-path metric in :mod:`repro.circuits.metrics` shares,
instead of each re-deriving dependencies with its own ad-hoc wire scan.

Conversion is lossless both ways: ``CircuitDAG.from_circuit(c)
.to_circuit()`` reproduces ``c``'s gate list exactly, because node ids
are assigned in time order and :meth:`topological` breaks ties on id
(the smallest unemitted id always has all predecessors emitted).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from repro.circuits.circuit import Circuit, Gate

#: Sentinel id for the input/output boundary of a wire.
BOUNDARY = -1


@dataclass
class DAGNode:
    """One gate occurrence with per-qubit wire links.

    ``preds[q]`` / ``succs[q]`` are the node ids of the previous / next
    gate on wire ``q`` (:data:`BOUNDARY` at the circuit edge).
    """

    id: int
    gate: Gate
    preds: dict[int, int] = field(default_factory=dict)
    succs: dict[int, int] = field(default_factory=dict)

    @property
    def qubits(self) -> tuple[int, ...]:
        return self.gate.qubits


class CircuitDAG:
    """Per-qubit wire-edge dependency DAG over a gate list."""

    def __init__(self, n_qubits: int, name: str = ""):
        self.n_qubits = n_qubits
        self.name = name
        self._nodes: dict[int, DAGNode] = {}
        self._first: list[int] = [BOUNDARY] * n_qubits
        self._last: list[int] = [BOUNDARY] * n_qubits
        self._next_id = 0

    # -- construction -------------------------------------------------------
    @classmethod
    def from_circuit(cls, circuit: Circuit) -> "CircuitDAG":
        dag = cls(circuit.n_qubits, circuit.name)
        for gate in circuit.gates:
            dag.add_gate(gate)
        return dag

    def add_gate(self, gate: Gate) -> DAGNode:
        """Append ``gate`` at the end of its wires (time order)."""
        node = DAGNode(self._next_id, gate)
        self._next_id += 1
        for q in gate.qubits:
            prev = self._last[q]
            node.preds[q] = prev
            node.succs[q] = BOUNDARY
            if prev == BOUNDARY:
                self._first[q] = node.id
            else:
                self._nodes[prev].succs[q] = node.id
            self._last[q] = node.id
        self._nodes[node.id] = node
        return node

    # -- access -------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._nodes

    def node(self, node_id: int) -> DAGNode:
        return self._nodes[node_id]

    def nodes(self) -> Iterator[DAGNode]:
        """All nodes in id (insertion) order — not a topological order
        after rewrites; use :meth:`topological` for that."""
        for i in sorted(self._nodes):
            yield self._nodes[i]

    def pred(self, node_id: int, qubit: int) -> DAGNode | None:
        """The previous node on ``qubit``'s wire, or None at the boundary."""
        i = self._nodes[node_id].preds[qubit]
        return None if i == BOUNDARY else self._nodes[i]

    def succ(self, node_id: int, qubit: int) -> DAGNode | None:
        """The next node on ``qubit``'s wire, or None at the boundary."""
        i = self._nodes[node_id].succs[qubit]
        return None if i == BOUNDARY else self._nodes[i]

    def predecessors(self, node_id: int) -> list[DAGNode]:
        """Distinct direct predecessors across all wires (id order)."""
        ids = {i for i in self._nodes[node_id].preds.values() if i != BOUNDARY}
        return [self._nodes[i] for i in sorted(ids)]

    def successors(self, node_id: int) -> list[DAGNode]:
        """Distinct direct successors across all wires (id order)."""
        ids = {i for i in self._nodes[node_id].succs.values() if i != BOUNDARY}
        return [self._nodes[i] for i in sorted(ids)]

    def wire(self, qubit: int) -> Iterator[DAGNode]:
        """All nodes on one wire, front to back."""
        i = self._first[qubit]
        while i != BOUNDARY:
            node = self._nodes[i]
            yield node
            i = node.succs[qubit]

    def front_layer(self) -> list[DAGNode]:
        """Nodes with no predecessors (every wire pred is the boundary)."""
        out = []
        for node in self._nodes.values():
            if all(p == BOUNDARY for p in node.preds.values()):
                out.append(node)
        return sorted(out, key=lambda n: n.id)

    # -- traversal ----------------------------------------------------------
    def topological(self) -> Iterator[DAGNode]:
        """Kahn's algorithm with an id-ordered ready heap.

        Because ids increase in insertion (time) order, popping the
        smallest ready id emits nodes in the exact original gate order
        for a freshly converted circuit — the lossless-roundtrip
        guarantee — and in a deterministic linear extension after
        rewrites.
        """
        pending = {
            i: len({p for p in n.preds.values() if p != BOUNDARY})
            for i, n in self._nodes.items()
        }
        ready = [i for i, deg in pending.items() if deg == 0]
        heapq.heapify(ready)
        emitted = 0
        while ready:
            i = heapq.heappop(ready)
            node = self._nodes[i]
            emitted += 1
            yield node
            for succ in self.successors(i):
                pending[succ.id] -= 1
                if pending[succ.id] == 0:
                    heapq.heappush(ready, succ.id)
        if emitted != len(self._nodes):
            raise RuntimeError("cycle in circuit DAG (corrupted wire edges)")

    def as_layers(self) -> list[list[DAGNode]]:
        """Front-layer (ASAP) schedule: maximal antichains of ready gates.

        Every node lands in the earliest layer where all its wire
        predecessors are already scheduled; gates within one layer act
        on pairwise-disjoint qubits and therefore commute.
        """
        level: dict[int, int] = {}
        layers: list[list[DAGNode]] = []
        for node in self.topological():
            lv = 0
            for p in node.preds.values():
                if p != BOUNDARY:
                    lv = max(lv, level[p] + 1)
            level[node.id] = lv
            if lv == len(layers):
                layers.append([])
            layers[lv].append(node)
        return layers

    def longest_path(
        self, weight: Callable[[Gate], float]
    ) -> tuple[float, list[DAGNode]]:
        """Heaviest path through the DAG under a per-gate ``weight``.

        The single shared traversal behind ``depth``, ``t_depth``,
        ``two_qubit_depth`` and critical-path extraction: one
        topological sweep computing, per node, the best weight of any
        path ending there.  Returns ``(total_weight, path_nodes)``;
        zero-weight nodes that happen to sit on the winning chain are
        included, so the path is an executable dependency chain.  When
        no node carries positive weight (e.g. the T-path of a T-free
        circuit) the path is empty rather than an arbitrary chain.
        """
        best: dict[int, float] = {}
        back: dict[int, int] = {}
        top: tuple[float, int] | None = None
        for node in self.topological():
            w = 0.0
            prev = BOUNDARY
            for p in node.preds.values():
                if p != BOUNDARY and best[p] > w:
                    w, prev = best[p], p
            w += weight(node.gate)
            best[node.id] = w
            back[node.id] = prev
            if top is None or w > top[0]:
                top = (w, node.id)
        if top is None or top[0] <= 0:
            return 0.0, []
        path: list[DAGNode] = []
        i = top[1]
        while i != BOUNDARY:
            path.append(self._nodes[i])
            i = back[i]
        path.reverse()
        return top[0], path

    # -- mutation -----------------------------------------------------------
    def remove_node(self, node_id: int) -> None:
        """Delete a gate, splicing its wires (preds link to succs)."""
        node = self._nodes.pop(node_id)
        for q in node.gate.qubits:
            p, s = node.preds[q], node.succs[q]
            if p == BOUNDARY:
                self._first[q] = s
            else:
                self._nodes[p].succs[q] = s
            if s == BOUNDARY:
                self._last[q] = p
            else:
                self._nodes[s].preds[q] = p

    def set_gate(self, node_id: int, gate: Gate) -> None:
        """Swap a node's gate in place (same qubit set required)."""
        node = self._nodes[node_id]
        if set(gate.qubits) != set(node.gate.qubits):
            raise ValueError("replacement gate must act on the same qubits")
        node.gate = gate

    def substitute_1q(self, node_id: int, gates: Iterable[Gate]) -> list[int]:
        """Replace a 1q node with a time-ordered run on the same wire.

        An empty ``gates`` just removes the node.  Returns the new ids.
        """
        node = self._nodes[node_id]
        if len(node.gate.qubits) != 1:
            raise ValueError("substitute_1q requires a single-qubit node")
        (q,) = node.gate.qubits
        prev, nxt = node.preds[q], node.succs[q]
        self.remove_node(node_id)
        new_ids: list[int] = []
        for gate in gates:
            if gate.qubits != (q,):
                raise ValueError("substitute gates must stay on the wire")
            fresh = DAGNode(self._next_id, gate)
            self._next_id += 1
            fresh.preds[q] = prev
            fresh.succs[q] = BOUNDARY
            if prev == BOUNDARY:
                self._first[q] = fresh.id
            else:
                self._nodes[prev].succs[q] = fresh.id
            self._nodes[fresh.id] = fresh
            new_ids.append(fresh.id)
            prev = fresh.id
        # Reconnect the tail of the spliced run to the old successor.
        if prev == BOUNDARY:
            self._first[q] = nxt
        elif nxt == BOUNDARY:
            self._last[q] = prev
        else:
            self._nodes[prev].succs[q] = nxt
            self._nodes[nxt].preds[q] = prev
        return new_ids

    # -- export -------------------------------------------------------------
    def to_circuit(self) -> Circuit:
        """Linearize back to a time-ordered gate list (lossless)."""
        out = Circuit(self.n_qubits, name=self.name)
        out.gates = [node.gate for node in self.topological()]
        return out

    def __repr__(self) -> str:
        return (
            f"CircuitDAG(n_qubits={self.n_qubits}, gates={len(self._nodes)})"
        )
