"""Columnar (struct-of-arrays) dependency DAG: the optimizer's only IR.

A :class:`DAGTable` stores one gate per *row*: the row index is the node
id, and every per-node attribute lives in a flat numpy column — interned
opcode, padded qubit pair, parameters, per-wire predecessor/successor
ids, and an alive mask.  The optimization passes in
:mod:`repro.optimizers.columnar` run as vectorized kernels over these
columns (gather-and-compare over the successor columns instead of
per-node object chasing), which is what makes ``optimization_level=4``
cheap on wide circuits.  Every production DAG pass goes
``Circuit`` → :meth:`DAGTable.from_circuit` → kernel →
:meth:`DAGTable.to_circuit`; the node-object
:class:`~repro.circuits.dag.CircuitDAG` serves only the reference
oracles the kernels are tested against.

``DAGTable.from_circuit(c).to_circuit()`` reproduces ``c``'s gate list
gate for gate (same reason as the DAG: ids ascend in time order and
linearization breaks ties on id), and a table and a DAG built from the
same circuit and rewritten by twin passes mint identical ids.

Beyond the DAG's columns the table maintains a ``pos`` float column: a
wire-monotone timestamp (original gates get 0..n-1; substituted runs get
midpoints between their wire neighbors).  Kernels use it to process
candidates in deterministic wire order, which is what keeps their output
byte-identical to the stack-based reference passes.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.circuits.circuit import (
    ONE_QUBIT_GATES,
    TWO_QUBIT_GATES,
    Circuit,
    Gate,
)
from repro.circuits.dag import BOUNDARY

#: The fixed gate vocabulary, in a stable order: opcode = index.
GATE_NAMES: tuple[str, ...] = (
    "i", "h", "s", "sdg", "t", "tdg", "x", "y", "z",
    "rx", "ry", "rz", "u3", "cx", "cz", "swap",
)
#: Gate name -> interned opcode.
OPCODE: dict[str, int] = {name: i for i, name in enumerate(GATE_NAMES)}
#: Maximum parameter count in the vocabulary (u3).
MAX_PARAMS = 3

if set(GATE_NAMES) != ONE_QUBIT_GATES | TWO_QUBIT_GATES:
    raise RuntimeError(
        "DAGTable opcode vocabulary out of sync with the circuit gate set"
    )


class DAGTable:
    """Struct-of-arrays dependency DAG with row index == node id.

    Columns (length = :attr:`size`, the id high-water mark; dead rows
    stay in place with ``alive`` False):

    * ``op``      — interned gate opcode (index into :data:`GATE_NAMES`)
    * ``q0``/``q1`` — qubit pair, ``q1 == -1`` for single-qubit gates
    * ``params``/``n_params`` — ``(size, 3)`` float block + used count
    * ``pred0``/``succ0`` — previous/next node id on ``q0``'s wire
    * ``pred1``/``succ1`` — previous/next node id on ``q1``'s wire
    * ``alive``   — row liveness mask
    * ``pos``     — wire-monotone timestamp (see module docstring)

    ``-1`` (:data:`~repro.circuits.dag.BOUNDARY`) marks the wire
    boundary in the link columns, exactly as in the DAG.
    """

    def __init__(self, n_qubits: int, name: str = "", capacity: int = 16):
        capacity = max(capacity, 1)
        self.n_qubits = n_qubits
        self.name = name
        self._size = 0          # id high-water mark (== next fresh id)
        self._n_alive = 0
        self._op = np.full(capacity, -1, dtype=np.int16)
        self._q0 = np.full(capacity, -1, dtype=np.int64)
        self._q1 = np.full(capacity, -1, dtype=np.int64)
        self._params = np.zeros((capacity, MAX_PARAMS), dtype=np.float64)
        self._n_params = np.zeros(capacity, dtype=np.int8)
        self._pred0 = np.full(capacity, BOUNDARY, dtype=np.int64)
        self._pred1 = np.full(capacity, BOUNDARY, dtype=np.int64)
        self._succ0 = np.full(capacity, BOUNDARY, dtype=np.int64)
        self._succ1 = np.full(capacity, BOUNDARY, dtype=np.int64)
        self._alive = np.zeros(capacity, dtype=bool)
        self._pos = np.zeros(capacity, dtype=np.float64)
        self._first = np.full(n_qubits, BOUNDARY, dtype=np.int64)
        self._last = np.full(n_qubits, BOUNDARY, dtype=np.int64)

    # -- column views --------------------------------------------------------
    @property
    def size(self) -> int:
        """Id high-water mark: rows ``0..size-1`` exist (alive or dead)."""
        return self._size

    @property
    def op(self) -> np.ndarray:
        return self._op[: self._size]

    @property
    def q0(self) -> np.ndarray:
        return self._q0[: self._size]

    @property
    def q1(self) -> np.ndarray:
        return self._q1[: self._size]

    @property
    def params(self) -> np.ndarray:
        return self._params[: self._size]

    @property
    def n_params(self) -> np.ndarray:
        return self._n_params[: self._size]

    @property
    def pred0(self) -> np.ndarray:
        return self._pred0[: self._size]

    @property
    def pred1(self) -> np.ndarray:
        return self._pred1[: self._size]

    @property
    def succ0(self) -> np.ndarray:
        return self._succ0[: self._size]

    @property
    def succ1(self) -> np.ndarray:
        return self._succ1[: self._size]

    @property
    def alive(self) -> np.ndarray:
        return self._alive[: self._size]

    @property
    def pos(self) -> np.ndarray:
        return self._pos[: self._size]

    @property
    def first(self) -> np.ndarray:
        return self._first

    @property
    def last(self) -> np.ndarray:
        return self._last

    def __len__(self) -> int:
        return self._n_alive

    def __contains__(self, node_id: int) -> bool:
        return 0 <= node_id < self._size and bool(self._alive[node_id])

    def __repr__(self) -> str:
        return (
            f"DAGTable(n_qubits={self.n_qubits}, gates={self._n_alive}, "
            f"rows={self._size})"
        )

    # -- construction --------------------------------------------------------
    def _ensure_capacity(self, n: int) -> None:
        cap = self._op.shape[0]
        if n <= cap:
            return
        new = max(n, 2 * cap)

        def grow(arr: np.ndarray, fill) -> np.ndarray:
            shape = (new,) + arr.shape[1:]
            out = np.full(shape, fill, dtype=arr.dtype)
            out[:cap] = arr
            return out

        self._op = grow(self._op, -1)
        self._q0 = grow(self._q0, -1)
        self._q1 = grow(self._q1, -1)
        self._params = grow(self._params, 0.0)
        self._n_params = grow(self._n_params, 0)
        self._pred0 = grow(self._pred0, BOUNDARY)
        self._pred1 = grow(self._pred1, BOUNDARY)
        self._succ0 = grow(self._succ0, BOUNDARY)
        self._succ1 = grow(self._succ1, BOUNDARY)
        self._alive = grow(self._alive, False)
        self._pos = grow(self._pos, 0.0)

    @staticmethod
    def _check_gate(gate: Gate) -> None:
        if gate.name not in OPCODE:
            raise ValueError(
                f"gate {gate.name!r} is outside the fixed IR vocabulary; "
                f"the DAG optimizer handles only {', '.join(GATE_NAMES)}"
            )
        if len(gate.qubits) not in (1, 2):
            raise ValueError(
                f"gate {gate.name!r} acts on {len(gate.qubits)} qubits; "
                "the table stores padded pairs (1 or 2 qubits)"
            )
        if len(gate.params) > MAX_PARAMS:
            raise ValueError(
                f"gate {gate.name!r} carries {len(gate.params)} params "
                f"(table rows hold at most {MAX_PARAMS})"
            )

    @classmethod
    def from_circuit(cls, circuit: Circuit) -> "DAGTable":
        """Build the table from a gate list (ids = positions, exact)."""
        gates = circuit.gates
        n = len(gates)
        table = cls(circuit.n_qubits, circuit.name, capacity=max(n, 1))
        if n == 0:
            return table
        for g in gates:
            cls._check_gate(g)
        table._size = n
        table._n_alive = n
        table._op[:n] = np.fromiter(
            (OPCODE[g.name] for g in gates), dtype=np.int16, count=n
        )
        q0 = np.fromiter((g.qubits[0] for g in gates), dtype=np.int64, count=n)
        q1 = np.fromiter(
            (g.qubits[1] if len(g.qubits) == 2 else -1 for g in gates),
            dtype=np.int64,
            count=n,
        )
        table._q0[:n] = q0
        table._q1[:n] = q1
        for i, g in enumerate(gates):
            if g.params:
                table._params[i, : len(g.params)] = g.params
                table._n_params[i] = len(g.params)
        table._alive[:n] = True
        table._pos[:n] = np.arange(n, dtype=np.float64)

        # Vectorized wire threading: one (qubit, id, slot) record per
        # gate-wire incidence, sorted by (qubit, id); neighbors within a
        # qubit group are the wire links.
        ids = np.arange(n, dtype=np.int64)
        two = q1 >= 0
        w_q = np.concatenate([q0, q1[two]])
        w_id = np.concatenate([ids, ids[two]])
        w_slot = np.concatenate(
            [np.zeros(n, dtype=np.int8), np.ones(int(two.sum()), dtype=np.int8)]
        )
        order = np.lexsort((w_id, w_q))
        sq, si, ss = w_q[order], w_id[order], w_slot[order]
        m = sq.shape[0]
        pred = np.full(m, BOUNDARY, dtype=np.int64)
        succ = np.full(m, BOUNDARY, dtype=np.int64)
        if m > 1:
            same = sq[1:] == sq[:-1]
            pred[1:][same] = si[:-1][same]
            succ[:-1][same] = si[1:][same]
        is0 = ss == 0
        table._pred0[si[is0]] = pred[is0]
        table._succ0[si[is0]] = succ[is0]
        table._pred1[si[~is0]] = pred[~is0]
        table._succ1[si[~is0]] = succ[~is0]
        head = np.ones(m, dtype=bool)
        head[1:] = sq[1:] != sq[:-1]
        tail = np.ones(m, dtype=bool)
        tail[:-1] = sq[:-1] != sq[1:]
        table._first[sq[head]] = si[head]
        table._last[sq[tail]] = si[tail]
        return table

    # -- access --------------------------------------------------------------
    def gate(self, node_id: int) -> Gate:
        """Reconstruct the :class:`Gate` value stored in a row."""
        name = GATE_NAMES[self._op[node_id]]
        q1 = int(self._q1[node_id])
        qubits = (
            (int(self._q0[node_id]),)
            if q1 < 0
            else (int(self._q0[node_id]), q1)
        )
        k = int(self._n_params[node_id])
        params = tuple(float(p) for p in self._params[node_id, :k])
        return Gate(name, qubits, params)

    def ids_on_wires(self, wires: Iterable[int]) -> np.ndarray:
        """Alive row ids touching any wire in ``wires`` (ascending)."""
        mask = np.zeros(self.n_qubits, dtype=bool)
        mask[list(wires)] = True
        n = self._size
        q0, q1 = self._q0[:n], self._q1[:n]
        hit = self._alive[:n] & (mask[q0] | ((q1 >= 0) & mask[np.maximum(q1, 0)]))
        return np.nonzero(hit)[0]

    # -- wire surgery --------------------------------------------------------
    def remove(self, node_id: int) -> None:
        """Delete a row, splicing its wires (preds link to succs)."""
        if not self._alive[node_id]:
            raise KeyError(node_id)
        q0, q1 = self._q0, self._q1
        p0, p1 = self._pred0, self._pred1
        s0, s1 = self._succ0, self._succ1
        q = q0[node_id]
        second = int(q1[node_id])
        for qq, p, s in (
            ((int(q), int(p0[node_id]), int(s0[node_id])),)
            if second < 0
            else (
                (int(q), int(p0[node_id]), int(s0[node_id])),
                (second, int(p1[node_id]), int(s1[node_id])),
            )
        ):
            if p == BOUNDARY:
                self._first[qq] = s
            elif q0[p] == qq:
                s0[p] = s
            else:
                s1[p] = s
            if s == BOUNDARY:
                self._last[qq] = p
            elif q0[s] == qq:
                p0[s] = p
            else:
                p1[s] = p
        self._alive[node_id] = False
        self._n_alive -= 1

    def set_gate(self, node_id: int, gate: Gate) -> None:
        """Swap a row's gate in place (same qubit set required)."""
        if not self._alive[node_id]:
            raise KeyError(node_id)
        self._check_gate(gate)
        old = {int(self._q0[node_id])}
        if self._q1[node_id] >= 0:
            old.add(int(self._q1[node_id]))
        if set(gate.qubits) != old:
            raise ValueError("replacement gate must act on the same qubits")
        self._op[node_id] = OPCODE[gate.name]
        self._params[node_id, :] = 0.0
        if gate.params:
            self._params[node_id, : len(gate.params)] = gate.params
        self._n_params[node_id] = len(gate.params)
        if len(gate.qubits) == 2 and gate.qubits != (
            int(self._q0[node_id]),
            int(self._q1[node_id]),
        ):
            # Qubit order flipped (cx orientation): swap the wire slots.
            self._q0[node_id], self._q1[node_id] = (
                self._q1[node_id],
                self._q0[node_id],
            )
            self._pred0[node_id], self._pred1[node_id] = (
                self._pred1[node_id],
                self._pred0[node_id],
            )
            self._succ0[node_id], self._succ1[node_id] = (
                self._succ1[node_id],
                self._succ0[node_id],
            )

    def substitute_1q_bulk(
        self, items: Sequence[tuple[int, Sequence[Gate]]]
    ) -> None:
        """Replace 1q rows with time-ordered runs on their wires, in bulk.

        Each ``(node_id, gates)`` item removes the row and splices
        ``gates`` into its place on the same wire.  Fresh ids ascend from
        the id counter in item order, exactly as
        :meth:`CircuitDAG.substitute_1q` mints them one item at a time,
        so a table and a DAG rewritten by twin passes mint identical
        ids; an empty run is a plain removal.  The new rows get ``pos``
        timestamps evenly spaced strictly between their wire neighbors'.
        The caller must guarantee no two replaced rows are wire-adjacent
        (phase-fold slots satisfy this: a parity-changing survivor
        always separates two live slots); otherwise the stitched links
        would disagree with the one-at-a-time semantics.
        """
        if not items:
            return
        m = len(items)
        ids_all = np.fromiter((i for i, _ in items), dtype=np.int64, count=m)
        if not self._alive[ids_all].all():
            raise KeyError("bulk substitution of a dead row")
        if (self._q1[ids_all] >= 0).any():
            raise ValueError("substitute_1q_bulk requires single-qubit nodes")
        ks_all = np.fromiter(
            (len(g) for _, g in items), dtype=np.int64, count=m
        )
        q_all = self._q0[ids_all].copy()
        # Neighbors are stable across the whole batch: no item is ever
        # another item's wire neighbor, so reading them up front is
        # equivalent to reading them one splice at a time.
        prev_all = self._pred0[ids_all].copy()
        nxt_all = self._succ0[ids_all].copy()

        # Empty replacement words are plain removals (mint no ids).
        for i in ids_all[ks_all == 0].tolist():
            self.remove(i)
        keep = ks_all > 0
        ids, ks = ids_all[keep], ks_all[keep]
        q, prev, nxt = q_all[keep], prev_all[keep], nxt_all[keep]
        if ids.size == 0:
            return
        m = ids.shape[0]

        total = int(ks.sum())
        base = self._size
        self._ensure_capacity(base + total)
        offs = base + np.concatenate(([0], np.cumsum(ks)[:-1]))

        # Validate and fill opcode/params in one pass over the gates.
        op_new: list[int] = []
        append = op_new.append
        r = base
        for (_node, gates), qi in zip(items, q_all.tolist()):
            for g in gates:
                if g.qubits != (qi,):
                    raise ValueError(
                        "substitute gates must stay on the wire"
                    )
                code = OPCODE.get(g.name)
                if code is None or len(g.params) > MAX_PARAMS:
                    self._check_gate(g)
                append(code)
                if g.params:
                    np_ = len(g.params)
                    self._params[r, :np_] = g.params
                    self._n_params[r] = np_
                r += 1

        end = base + total
        rows = np.arange(base, end, dtype=np.int64)
        first_rel = offs - base
        last_rel = first_rel + ks - 1
        self._op[base:end] = op_new
        self._q0[base:end] = np.repeat(q, ks)
        self._q1[base:end] = -1
        self._alive[base:end] = True
        pred_col = rows - 1
        succ_col = rows + 1
        pred_col[first_rel] = prev
        succ_col[last_rel] = nxt
        self._pred0[base:end] = pred_col
        self._succ0[base:end] = succ_col
        # Run j of k gets lo + step * j with step = (hi - lo) / (k + 1);
        # the boundary cases mirror the open-ended wire (lo = -1, or
        # hi = lo + k + 1).
        lo = np.where(prev == BOUNDARY, -1.0, self._pos[np.maximum(prev, 0)])
        hi = np.where(
            nxt == BOUNDARY, lo + (ks + 1.0), self._pos[np.maximum(nxt, 0)]
        )
        step = (hi - lo) / (ks + 1.0)
        jj = rows - np.repeat(offs, ks) + 1.0
        self._pos[base:end] = np.repeat(lo, ks) + np.repeat(step, ks) * jj

        # Stitch the wire neighbors to the run heads/tails.  Duplicate
        # neighbor ids across items land on different wire slots (a 2q
        # neighbor shared by two items is hit once per wire), so the
        # fancy-indexed writes cannot collide.
        heads, tails = offs, offs + ks - 1
        at_head = prev == BOUNDARY
        self._first[q[at_head]] = heads[at_head]
        pm = ~at_head
        p, h = prev[pm], heads[pm]
        is0 = self._q0[p] == q[pm]
        self._succ0[p[is0]] = h[is0]
        self._succ1[p[~is0]] = h[~is0]
        at_tail = nxt == BOUNDARY
        self._last[q[at_tail]] = tails[at_tail]
        nm = ~at_tail
        s, t = nxt[nm], tails[nm]
        is0 = self._q0[s] == q[nm]
        self._pred0[s[is0]] = t[is0]
        self._pred1[s[~is0]] = t[~is0]

        self._alive[ids] = False
        self._size = end
        self._n_alive += total - m

    # -- traversal / export --------------------------------------------------
    def linear_order(self) -> list[int]:
        """Kahn's algorithm with an id-ordered ready heap (see the DAG).

        Returns alive row ids in the same deterministic linear extension
        :meth:`CircuitDAG.topological` yields — smallest ready id first —
        so linearizations of a table and of its DAG twin agree exactly.
        """
        import heapq

        n = self._size
        alive = self._alive[:n]
        p0, p1 = self._pred0[:n], self._pred1[:n]
        s0l = self._succ0[:n].tolist()
        s1l = self._succ1[:n].tolist()
        indeg_arr = (p0 >= 0).astype(np.int64) + ((p1 >= 0) & (p1 != p0))
        indeg = indeg_arr.tolist()
        ready = np.nonzero(alive & (indeg_arr == 0))[0].tolist()
        heapq.heapify(ready)
        out: list[int] = []
        while ready:
            i = heapq.heappop(ready)
            out.append(i)
            s0 = s0l[i]
            if s0 != BOUNDARY:
                indeg[s0] -= 1
                if indeg[s0] == 0:
                    heapq.heappush(ready, s0)
            s1 = s1l[i]
            if s1 != BOUNDARY and s1 != s0:
                indeg[s1] -= 1
                if indeg[s1] == 0:
                    heapq.heappush(ready, s1)
        if len(out) != self._n_alive:
            raise RuntimeError("cycle in DAG table (corrupted wire columns)")
        return out

    def to_circuit(self) -> Circuit:
        """Linearize back to a time-ordered gate list (lossless)."""
        order = self.linear_order()
        ids = np.asarray(order, dtype=np.int64)
        out = Circuit(self.n_qubits, name=self.name)
        if not order:
            return out
        # Bulk row reconstruction: snapshot the columns as python lists
        # once instead of per-gate numpy scalar reads, and share Gate
        # values for repeated parameterless rows (immutable anyway).
        op_l = self._op[ids].tolist()
        q0_l = self._q0[ids].tolist()
        q1_l = self._q1[ids].tolist()
        np_l = self._n_params[ids].tolist()
        pr_l = self._params[ids].tolist()
        names = GATE_NAMES
        memo: dict[tuple[int, int, int], Gate] = {}
        gates: list[Gate] = []
        append = gates.append
        for k in range(len(order)):
            if np_l[k] == 0:
                key = (op_l[k], q0_l[k], q1_l[k])
                g = memo.get(key)
                if g is None:
                    g = Gate(
                        names[key[0]],
                        (key[1],) if key[2] < 0 else (key[1], key[2]),
                    )
                    memo[key] = g
                append(g)
            else:
                append(Gate(
                    names[op_l[k]],
                    (q0_l[k],) if q1_l[k] < 0 else (q0_l[k], q1_l[k]),
                    tuple(pr_l[k][: np_l[k]]),
                ))
        out.gates = gates
        return out
