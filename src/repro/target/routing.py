"""Connectivity-constrained routing over the dependency DAG.

:func:`route_dag` is a SABRE-style lookahead swap router: it keeps the
DAG's front layer of ready gates, executes everything already on a
coupling edge, and otherwise greedily inserts the SWAP that most
reduces the layout-mapped distance of the front layer plus a discounted
*extended set* of upcoming two-qubit gates.  A stall guard force-routes
the oldest blocked gate along a shortest path, so routing always
terminates.  The router emits a routed DAG on *physical* wires, the
final virtual->physical permutation, and swap/depth metrics.

:func:`naive_route` is the adjacent-transposition baseline (bring the
qubits together along a shortest path, apply, swap all the way back) —
the strategy :class:`repro.tensornet.circuit_mps.CircuitMPS` used to
hard-code, kept as the comparison point the lookahead router has to
beat.

Semantics: let ``L0``/``Lf`` be the initial/final layouts.  The routed
circuit ``R`` on ``n_phys`` wires satisfies ``R = P(Lf) (C ⊗ I)
P(L0)^{-1}`` exactly (no global phase is introduced by routing alone),
where ``P(L)`` permutes virtual wire ``v`` onto physical wire
``L[v]``.  :func:`permute_statevector` applies ``P(L)`` to a dense
state so tests and callers can verify equivalence directly.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.circuits.circuit import Circuit, Gate
from repro.circuits.dag import BOUNDARY, CircuitDAG
from repro.circuits.metrics import depth as circuit_depth
from repro.circuits.metrics import two_qubit_depth
from repro.target.layout import Layout, resolve_layout
from repro.target.target import Target

#: Discount applied to the extended (lookahead) set in the swap score.
DEFAULT_LOOKAHEAD_WEIGHT = 0.5
#: How many upcoming 2q gates the extended set may contain.
DEFAULT_LOOKAHEAD = 20


@dataclass
class RoutingMetrics:
    """Accounting for one routing run."""

    swaps_inserted: int
    depth_before: int
    depth_after: int
    two_qubit_depth_before: int
    two_qubit_depth_after: int
    direction_fixes: int = 0


@dataclass
class RoutingResult:
    """A routed circuit plus the permutation story and metrics."""

    circuit: Circuit
    target: Target
    initial_layout: Layout
    final_layout: Layout
    metrics: RoutingMetrics

    @property
    def swaps_inserted(self) -> int:
        return self.metrics.swaps_inserted

    @property
    def permutation(self) -> tuple[int, ...]:
        """Final virtual->physical map: wire ``v`` ends on ``perm[v]``."""
        return self.final_layout.as_list()


def route_dag(
    dag: CircuitDAG,
    target: Target,
    layout: Layout | None = None,
    cost_aware: bool | None = None,
    scorer: str = "vector",
) -> tuple[CircuitDAG, Layout, int]:
    """SABRE-style swap routing of ``dag`` onto ``target``.

    Returns ``(routed_dag, final_layout, swaps_inserted)``; the routed
    DAG lives on ``target.n_qubits`` physical wires and every 2q gate
    lies on a coupling edge.  ``layout`` is the initial placement
    (trivial when omitted) and is not mutated.

    ``cost_aware`` enables error-aware tie-breaking: among swap
    candidates with equal lookahead-distance scores, the one on the
    lowest-error coupling edge wins, so swap chains drift toward the
    well-calibrated region of the device.  ``None`` (default) enables
    it exactly when the target carries a per-edge error table — on
    uncalibrated targets the tie-break is a no-op and routing is
    byte-identical to the error-agnostic router.

    ``scorer`` selects the candidate-swap scoring implementation:
    ``"vector"`` (default) batches every candidate's lookahead score
    into one numpy gather over the coupling map's distance matrix;
    ``"reference"`` is the original per-candidate python closure, kept
    for property testing and as the perf-harness baseline.  Both pick
    byte-identical swaps.
    """
    if scorer not in ("vector", "reference"):
        raise ValueError(
            f"unknown scorer {scorer!r} (expected 'vector' or 'reference')"
        )
    cmap = target.coupling
    if cost_aware is None:
        cost_aware = bool(target.edge_errors)
    n_phys = target.n_qubits
    if dag.n_qubits > n_phys:
        raise ValueError(
            f"circuit has {dag.n_qubits} qubits but target has {n_phys}"
        )
    if not cmap.is_connected():
        raise ValueError("cannot route on a disconnected coupling map")
    lay = Layout.trivial(n_phys) if layout is None else layout.copy()
    out = CircuitDAG(n_phys, dag.name)
    # Scalar fast paths for the per-gate loop: a live alias of the
    # layout list (swap_physical mutates it in place) and the distance
    # matrix as nested python lists — scalar list indexing beats ndarray
    # item access for the one-pair adjacency checks done per gate.
    l2p = lay._l2p
    dist_list = cmap.distance_matrix.tolist()

    pending = {
        n.id: len({p for p in n.preds.values() if p != BOUNDARY})
        for n in dag.nodes()
    }
    # The input DAG never changes while routing, so resolve each node's
    # successor ids once up front instead of re-deriving them on every
    # completion and every lookahead expansion.
    succ_map = {
        n.id: [s.id for s in dag.successors(n.id)] for n in dag.nodes()
    }
    ready = [i for i, deg in pending.items() if deg == 0]
    heapq.heapify(ready)
    blocked: list[int] = []  # ready 2q gates not on an edge (id order)

    def complete(node_id: int) -> None:
        for sid in succ_map[node_id]:
            pending[sid] -= 1
            if pending[sid] == 0:
                heapq.heappush(ready, sid)

    def emit_mapped(gate: Gate) -> None:
        out.add_gate(
            Gate(gate.name, tuple(l2p[q] for q in gate.qubits),
                 gate.params)
        )

    def emit_swap(p: int, q: int) -> None:
        out.add_gate(Gate("swap", (min(p, q), max(p, q))))
        lay.swap_physical(p, q)

    swaps = 0
    stall = 0
    last_swap: tuple[int, int] | None = None
    # Front/extended qubit pairs depend only on the blocked id set, which
    # is unchanged across consecutive swap attempts; cache them so the
    # per-swap work is just scoring, not re-deriving the lookahead set.
    cache_key: tuple[int, ...] | None = None
    cache_front = []  # pair list (reference) or (F, 2) array (vector)
    cache_extended = []  # likewise, (E, 2) for the vector scorer
    best_swap = _best_swap if scorer == "vector" else _best_swap_reference
    # Hard ceiling: any run needing more swaps than this is a router bug.
    max_swaps = 4 * (len(dag) + 1) * max(1, cmap.diameter()) + 4 * n_phys

    def force_route() -> None:
        # Force-route the oldest blocked gate along a shortest path so
        # termination never hinges on the heuristic.
        nonlocal swaps, stall
        node = dag.node(blocked[0])
        a, b = node.gate.qubits
        path = cmap.shortest_path(lay.physical(a), lay.physical(b))
        for k in range(len(path) - 2):
            emit_swap(path[k], path[k + 1])
            swaps += 1
        stall = 0

    while ready or blocked:
        progressed = False
        while ready:
            i = heapq.heappop(ready)
            node = dag.node(i)
            if len(node.gate.qubits) == 1:
                emit_mapped(node.gate)
                complete(i)
                progressed = True
                continue
            a, b = node.gate.qubits
            if dist_list[l2p[a]][l2p[b]] == 1:
                emit_mapped(node.gate)
                complete(i)
                progressed = True
            else:
                blocked.append(i)
        if progressed:
            stall = 0
            last_swap = None
            if ready or not blocked:
                continue
        if not blocked:
            break
        blocked.sort()
        key = tuple(blocked)
        if key != cache_key:
            cache_key = key
            cache_front = [dag.node(i).gate.qubits for i in blocked]
            cache_extended = _extended_set(
                dag, blocked, pending, succ_map
            )
            if scorer == "vector":
                # The vector scorer gathers through arrays; build them
                # once per blocked set instead of once per swap.
                cache_front = np.asarray(cache_front, dtype=np.intp)
                cache_extended = np.asarray(
                    cache_extended, dtype=np.intp
                ).reshape(-1, 2)
        if stall > 2 * n_phys:
            force_route()
        else:
            edge = best_swap(
                cmap, lay, cache_front, cache_extended, last_swap,
                target if cost_aware else None,
            )
            if edge is None:
                # Oscillation guard: the only candidate would undo the
                # previous swap (a degree-1 corridor); skip straight to
                # the shortest-path fallback instead of ping-ponging
                # until the stall counter trips.
                force_route()
            else:
                emit_swap(*edge)
                last_swap = edge
                swaps += 1
                stall += 1
        if swaps > max_swaps:
            raise RuntimeError(
                "router exceeded its swap budget (internal error)"
            )
        # The layout changed: every blocked gate is worth re-checking.
        for i in blocked:
            heapq.heappush(ready, i)
        blocked.clear()
    return out, lay, swaps


def _swap_candidates(
    cmap,
    lay: Layout,
    front: list[tuple[int, int]],
    last_swap: tuple[int, int] | None,
) -> list[tuple[int, int]] | None:
    """Candidate swap edges adjacent to the front layer, sorted.

    ``last_swap`` is excluded so the router never immediately undoes
    itself.  Returns ``None`` when the *only* candidate is
    ``last_swap`` (a degree-1 corridor): picking it would oscillate, so
    the caller must fall back to shortest-path force-routing instead.
    """
    active = {lay.physical(q) for pair in front for q in pair}
    candidates = sorted(
        {
            (min(p, q), max(p, q))
            for p in active
            for q in cmap.neighbors(p)
        }
    )
    if last_swap in candidates:
        if len(candidates) == 1:
            return None
        candidates.remove(last_swap)
    return candidates


def _best_swap(
    cmap,
    lay: Layout,
    front: list[tuple[int, int]],
    extended: list[tuple[int, int]],
    last_swap: tuple[int, int] | None,
    cost_target: Target | None = None,
) -> tuple[int, int] | None:
    """The candidate SWAP minimizing the lookahead distance score.

    Vectorized scorer: every candidate's front and extended-set
    distances come from one numpy gather over the coupling map's cached
    distance matrix, replacing the per-candidate python closure of
    :func:`_best_swap_reference`.  Distance sums are exact integers and
    the float combination mirrors the reference expression term for
    term, so the chosen edge is byte-identical (property-tested).

    With ``cost_target`` set, equal-score candidates are tie-broken
    toward the lowest-error coupling edge (the router's cost-aware
    mode).  Only the tie-break changes, but a different tie winner
    still shifts the layout, so downstream swap choices — and the
    total swap count — may diverge from the error-agnostic router on
    calibrated targets; with no per-edge table the tie-break is a
    constant and routing is byte-identical.
    """
    dist = cmap.distance_matrix
    # Layout keeps this numpy mirror in sync with every swap, so no
    # per-call list->array conversion is needed.
    l2p = lay._l2p_arr
    front_phys = l2p[np.asarray(front, dtype=np.intp)]
    # Candidate edges: everything incident to an active (front) qubit,
    # enumerated by one padded gather + membership mask.  flatnonzero
    # yields ascending edge ids and cmap.edges is lexicographically
    # sorted, so this reproduces sorted(set(...)) exactly.
    edges = cmap.edges_array
    touched = cmap.incident_matrix[front_phys.ravel()]
    mask = np.zeros(edges.shape[0] + 1, dtype=bool)
    mask[touched.ravel()] = True
    mask[-1] = False  # padding sentinel
    cand = edges[np.flatnonzero(mask)]
    if last_swap is not None:
        keep = ~((cand[:, 0] == last_swap[0]) & (cand[:, 1] == last_swap[1]))
        if not keep.all():
            if cand.shape[0] == 1:
                return None  # sole candidate undoes the previous swap
            cand = cand[keep]
    cp = cand[:, 0]
    cq = cand[:, 1]

    # Front pairs are wire-disjoint (two ready gates never share a
    # qubit), so each physical qubit sits in at most one front pair and
    # a candidate swap (p, q) shifts the integer front-distance sum by
    # an O(1) delta: re-gather only the pairs containing p or q.  The
    # sums stay exact integers, so dividing them reproduces the
    # reference scorer's floats bit for bit.
    fa = front_phys[:, 0]
    fb = front_phys[:, 1]
    n = dist.shape[0]
    opp = np.full(n, -1, dtype=np.intp)
    opp[fa] = fb
    opp[fb] = fa
    op_p = opp[cp]
    op_q = opp[cq]
    # A -1 sentinel indexes the last column harmlessly; np.where drops it.
    delta = np.where(
        op_p >= 0, dist[cq, op_p] - dist[cp, op_p], 0
    ) + np.where(op_q >= 0, dist[cp, op_q] - dist[cq, op_q], 0)
    # A front pair lying exactly on the candidate edge keeps its
    # distance under the swap, but the two endpoint terms above each
    # subtracted it; add both back.  (The router never scores such a
    # pair — an on-edge gate executes instead of blocking — but the
    # scorer stays correct for arbitrary inputs.)
    delta = delta + np.where(op_p == cq, 2 * dist[cp, cq], 0)
    front_sums = int(dist[fa, fb].sum()) + delta
    scores = front_sums / len(front)
    if len(extended):
        # Extended pairs may repeat qubits, so map them densely; the
        # (C, E) block is small (E is capped by the lookahead depth).
        ext_phys = l2p[np.asarray(extended, dtype=np.intp)]
        a = ext_phys[:, 0][None, :]
        b = ext_phys[:, 1][None, :]
        p = cp[:, None]
        q = cq[:, None]
        ma = np.where(a == p, q, np.where(a == q, p, a))
        mb = np.where(b == p, q, np.where(b == q, p, b))
        ext_sums = dist[ma, mb].sum(axis=1)
        scores = scores + (DEFAULT_LOOKAHEAD_WEIGHT * ext_sums) / len(extended)
    best = np.flatnonzero(scores == scores.min())
    if cost_target is not None and best.size > 1:
        errs = np.asarray(
            [
                cost_target.edge_error(int(cand[i, 0]), int(cand[i, 1]))
                for i in best
            ]
        )
        best = best[errs == errs.min()]
    winner = cand[int(best[0])]
    return (int(winner[0]), int(winner[1]))


def _best_swap_reference(
    cmap,
    lay: Layout,
    front: list[tuple[int, int]],
    extended: list[tuple[int, int]],
    last_swap: tuple[int, int] | None,
    cost_target: Target | None = None,
) -> tuple[int, int] | None:
    """The original closure-based scorer (see :func:`_best_swap`).

    Kept as the byte-for-byte baseline: the property suite asserts the
    vectorized scorer picks identical edges, and the perf harness times
    it as the pre-vectorization comparison point.
    """
    candidates = _swap_candidates(cmap, lay, front, last_swap)
    if candidates is None:
        return None

    def score(edge: tuple[int, int]) -> float:
        p, q = edge

        def mapped(v: int) -> int:
            phys = lay.physical(v)
            if phys == p:
                return q
            if phys == q:
                return p
            return phys

        total = sum(
            cmap.distance(mapped(a), mapped(b)) for a, b in front
        ) / len(front)
        if extended:
            total += DEFAULT_LOOKAHEAD_WEIGHT * sum(
                cmap.distance(mapped(a), mapped(b)) for a, b in extended
            ) / len(extended)
        return total

    if cost_target is not None:
        return min(
            candidates,
            key=lambda e: (score(e), cost_target.edge_error(*e), e),
        )
    return min(candidates, key=lambda e: (score(e), e))


def _extended_set(
    dag: CircuitDAG,
    blocked: list[int],
    pending: dict[int, int],
    succ_map: dict[int, list[int]] | None = None,
) -> list[tuple[int, int]]:
    """Qubit pairs of the next :data:`DEFAULT_LOOKAHEAD` 2q gates past
    the front.

    ``succ_map`` optionally supplies precomputed successor-id lists
    (the routing loop builds one; standalone callers may omit it).
    """
    out: list[tuple[int, int]] = []
    seen = set(blocked)
    queue = deque(blocked)
    while queue and len(out) < DEFAULT_LOOKAHEAD:
        nid = queue.popleft()
        succ_ids = (
            succ_map[nid]
            if succ_map is not None
            else [s.id for s in dag.successors(nid)]
        )
        for sid in succ_ids:
            if sid in seen or pending.get(sid) is None:
                continue
            seen.add(sid)
            queue.append(sid)
            qubits = dag.node(sid).gate.qubits
            if len(qubits) == 2:
                out.append(qubits)
                if len(out) >= DEFAULT_LOOKAHEAD:
                    break
    return out


def route_circuit(
    circuit: Circuit,
    target: Target,
    layout: str | Layout | None = "dense",
    cost_aware: bool | None = None,
    scorer: str = "vector",
) -> RoutingResult:
    """Route a circuit onto ``target``: layout + SABRE swaps + metrics.

    ``layout`` picks the initial placement: ``"trivial"``, ``"dense"``
    (default), or an explicit :class:`Layout`.  ``cost_aware`` controls
    error-aware swap tie-breaking and ``scorer`` the swap-scoring
    implementation (see :func:`route_dag`).
    """
    initial = resolve_layout(layout, circuit, target)
    dag = CircuitDAG.from_circuit(circuit)
    routed_dag, final, swaps = route_dag(
        dag, target, initial, cost_aware=cost_aware, scorer=scorer,
    )
    routed = routed_dag.to_circuit()
    metrics = RoutingMetrics(
        swaps_inserted=swaps,
        depth_before=circuit_depth(circuit),
        depth_after=circuit_depth(routed),
        two_qubit_depth_before=two_qubit_depth(circuit),
        two_qubit_depth_after=two_qubit_depth(routed),
    )
    return RoutingResult(
        circuit=routed,
        target=target,
        initial_layout=initial,
        final_layout=final,
        metrics=metrics,
    )


def naive_route(
    circuit: Circuit,
    target: Target,
    layout: str | Layout | None = "trivial",
) -> RoutingResult:
    """Adjacent-transposition baseline: route there, apply, route back.

    Every non-adjacent 2q gate pays ``2 * (distance - 1)`` swaps and the
    layout is restored after each gate (final layout == initial layout).
    This is exactly the swap-chain strategy the MPS simulator hard-coded
    before the lookahead router existed.
    """
    initial = resolve_layout(layout, circuit, target)
    lay = initial.copy()
    cmap = target.coupling
    if not cmap.is_connected():
        raise ValueError("cannot route on a disconnected coupling map")
    out = Circuit(target.n_qubits, name=circuit.name)
    swaps = 0
    for g in circuit.gates:
        if len(g.qubits) == 1:
            out.gates.append(Gate(g.name, (lay.physical(g.qubits[0]),),
                                  g.params))
            continue
        a, b = g.qubits
        path = cmap.shortest_path(lay.physical(a), lay.physical(b))
        chain = [(path[k], path[k + 1]) for k in range(len(path) - 2)]
        for p, q in chain:
            out.gates.append(Gate("swap", (min(p, q), max(p, q))))
            lay.swap_physical(p, q)
            swaps += 1
        out.gates.append(
            Gate(g.name, (lay.physical(a), lay.physical(b)), g.params)
        )
        for p, q in reversed(chain):
            out.gates.append(Gate("swap", (min(p, q), max(p, q))))
            lay.swap_physical(p, q)
            swaps += 1
    metrics = RoutingMetrics(
        swaps_inserted=swaps,
        depth_before=circuit_depth(circuit),
        depth_after=circuit_depth(out),
        two_qubit_depth_before=two_qubit_depth(circuit),
        two_qubit_depth_after=two_qubit_depth(out),
    )
    return RoutingResult(
        circuit=out,
        target=target,
        initial_layout=initial,
        final_layout=lay,
        metrics=metrics,
    )


def fix_gate_directions(circuit: Circuit, target: Target) -> tuple[Circuit, int]:
    """Repair CX orientation on a directed coupling map.

    A routed ``cx(a, b)`` whose native direction is ``b -> a`` becomes
    ``H a; H b; cx(b, a); H a; H b`` (exact, no global phase).  CZ and
    SWAP are direction-symmetric and pass through.  Returns the fixed
    circuit and the number of reversals; on undirected targets this is
    the identity.  Raises ``ValueError`` for a 2q gate off the coupling
    map entirely (i.e. an unrouted circuit).
    """
    cmap = target.coupling
    out = Circuit(circuit.n_qubits, name=circuit.name)
    fixes = 0
    for g in circuit.gates:
        if g.name != "cx" or len(g.qubits) != 2:
            if len(g.qubits) == 2 and not cmap.has_edge(*g.qubits):
                raise ValueError(
                    f"2q gate on ({g.qubits[0]}, {g.qubits[1]}) is off the "
                    "coupling map; route the circuit first"
                )
            out.gates.append(g)
            continue
        a, b = g.qubits
        if cmap.allows(a, b):
            out.gates.append(g)
        elif cmap.allows(b, a):
            out.h(a).h(b)
            out.gates.append(Gate("cx", (b, a)))
            out.h(a).h(b)
            fixes += 1
        else:
            raise ValueError(
                f"cx on ({a}, {b}) is off the coupling map; route the "
                "circuit first"
            )
    return out, fixes


def on_coupling_edges(circuit: Circuit, target: Target) -> bool:
    """True when every 2q gate of ``circuit`` lies on a coupling edge."""
    return all(
        target.coupling.has_edge(*g.qubits)
        for g in circuit.gates
        if len(g.qubits) == 2
    )


def permute_statevector(psi: np.ndarray, l2p) -> np.ndarray:
    """Apply the layout permutation ``P(L)`` to a dense state.

    Virtual axis ``v`` of ``psi`` moves to physical axis ``l2p[v]``;
    the result is the state as physical wires see it.
    """
    l2p = list(l2p)
    n = len(l2p)
    arr = np.asarray(psi, dtype=complex).reshape((2,) * n)
    return np.moveaxis(arr, list(range(n)), l2p).reshape(-1)


def routed_statevector_equivalent(
    original: Circuit, result: RoutingResult, atol: float = 1e-9
) -> bool:
    """Check ``R|0..0> == P(Lf) (C ⊗ I)|0..0>`` for a routing result.

    Embeds the original state with |0> ancillas on the extra physical
    wires, applies the final-layout permutation, and compares against
    the routed circuit's statevector exactly (routing introduces no
    global phase).
    """
    n_phys = result.circuit.n_qubits
    psi = original.statevector()
    pad = n_phys - original.n_qubits
    if pad:
        anc = np.zeros(2**pad, dtype=complex)
        anc[0] = 1.0
        psi = np.kron(psi, anc)
    expected = permute_statevector(psi, result.final_layout.as_list())
    got = result.circuit.statevector()
    return bool(np.allclose(got, expected, atol=atol))
