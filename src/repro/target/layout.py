"""Initial placement of circuit wires onto physical qubits.

A :class:`Layout` is a bijection between *virtual* wires (the circuit's
qubits, padded with idle ancilla wires up to the device size) and
physical qubits.  Two initial-placement strategies are provided:

* :func:`trivial_layout` — virtual wire ``v`` on physical qubit ``v``,
* :func:`dense_layout` — a degree/error-aware greedy placement that
  drops the circuit's interaction graph onto the best-connected,
  lowest-error region of the device, growing outward from the busiest
  logical qubit (the DenseLayout idea of mainstream transpilers).

Routing (:mod:`repro.target.routing`) then mutates a copy of the
initial layout swap by swap; the final layout *is* the output
permutation reported to callers.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Mapping

import numpy as np

from repro.circuits.circuit import Circuit
from repro.target.target import Target


class Layout:
    """A virtual-wire -> physical-qubit bijection of device size."""

    def __init__(self, l2p):
        l2p = [int(p) for p in l2p]
        if sorted(l2p) != list(range(len(l2p))):
            raise ValueError("layout must be a permutation of 0..n-1")
        self._l2p = l2p
        self._p2l = [0] * len(l2p)
        for v, p in enumerate(l2p):
            self._p2l[p] = v
        # numpy mirror of _l2p, kept in sync by swap_physical, so the
        # vectorized swap scorer can gather through it without
        # rebuilding an array on every call.
        self._l2p_arr = np.asarray(l2p, dtype=np.intp)

    @classmethod
    def trivial(cls, n: int) -> "Layout":
        return cls(range(n))

    @classmethod
    def from_mapping(cls, mapping: Mapping[int, int], n: int) -> "Layout":
        """Place logical qubits per ``mapping``; ancillas fill the rest.

        ``mapping`` maps logical wire -> physical qubit for the wires
        the circuit actually uses; remaining virtual wires take the
        unused physical qubits in ascending order.
        """
        used = set(mapping.values())
        if len(used) != len(mapping):
            raise ValueError("mapping assigns one physical qubit twice")
        free = iter(p for p in range(n) if p not in used)
        l2p = [mapping[v] if v in mapping else next(free) for v in range(n)]
        return cls(l2p)

    def __len__(self) -> int:
        return len(self._l2p)

    def physical(self, v: int) -> int:
        """The physical qubit currently holding virtual wire ``v``."""
        return self._l2p[v]

    def virtual(self, p: int) -> int:
        """The virtual wire currently on physical qubit ``p``."""
        return self._p2l[p]

    def swap_physical(self, p: int, q: int) -> None:
        """Record a SWAP between physical qubits ``p`` and ``q``."""
        a, b = self._p2l[p], self._p2l[q]
        self._p2l[p], self._p2l[q] = b, a
        self._l2p[a], self._l2p[b] = q, p
        self._l2p_arr[a] = q
        self._l2p_arr[b] = p

    def copy(self) -> "Layout":
        return Layout(self._l2p)

    def as_list(self) -> tuple[int, ...]:
        """The full virtual->physical permutation."""
        return tuple(self._l2p)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Layout):
            return NotImplemented
        return self._l2p == other._l2p

    def __repr__(self) -> str:
        return f"Layout({self._l2p})"


def trivial_layout(circuit: Circuit, target: Target) -> Layout:
    """Virtual wire ``v`` on physical qubit ``v`` (identity placement)."""
    _check_fits(circuit, target)
    return Layout.trivial(target.n_qubits)


def dense_layout(circuit: Circuit, target: Target) -> Layout:
    """Degree/error-aware greedy placement of the interaction graph.

    The busiest logical qubit lands on the physical qubit with the
    highest degree (ties broken toward lower incident two-qubit error,
    then lower index); each subsequent logical qubit — picked by total
    interaction weight with already-placed ones — goes to the free
    physical qubit minimizing the distance-weighted sum to its placed
    partners.  Deterministic throughout.

    On targets carrying a per-edge error table the tie-break order is
    cost-aware: among equal-pull spots, low incident error beats high
    degree, steering the interaction graph onto the device's
    best-calibrated region.  Uncalibrated targets (where the incident
    error is uniformly zero) order exactly as before.
    """
    _check_fits(circuit, target)
    cmap = target.coupling
    error_first = bool(target.edge_errors)
    weight: dict[tuple[int, int], int] = defaultdict(int)
    activity: dict[int, int] = defaultdict(int)
    for g in circuit.gates:
        if len(g.qubits) == 2:
            a, b = g.qubits
            weight[(min(a, b), max(a, b))] += 1
            activity[a] += 1
            activity[b] += 1
    if not weight:
        return Layout.trivial(target.n_qubits)

    # Per-qubit calibration cost, computed once: the greedy loop below
    # consults it O(n^2) times and the mean is loop-invariant.
    qcost = [
        (
            sum(target.edge_error(p, q) for q in cmap.neighbors(p))
            / cmap.degree(p)
            if cmap.degree(p)
            else 0.0
        )
        for p in range(target.n_qubits)
    ]

    partners: dict[int, dict[int, int]] = defaultdict(dict)
    for (a, b), w in weight.items():
        partners[a][b] = w
        partners[b][a] = w

    def spot_rank(p: int) -> tuple:
        # Cost-aware order puts calibration quality ahead of degree;
        # with no per-edge table qubit_cost is constant and the order
        # degrades to the original degree-first rule.
        if error_first:
            return (qcost[p], -cmap.degree(p), p)
        return (-cmap.degree(p), qcost[p], p)

    dist = cmap.distance_matrix
    placed: dict[int, int] = {}  # logical -> physical
    free = set(range(target.n_qubits))
    seed = max(activity, key=lambda q: (activity[q], -q))
    best = min(free, key=spot_rank)
    placed[seed] = best
    free.discard(best)
    remaining = set(activity) - {seed}
    while remaining:
        nxt = max(
            remaining,
            key=lambda q: (
                sum(w for o, w in partners[q].items() if o in placed),
                activity[q],
                -q,
            ),
        )
        anchors = [
            (placed[o], w) for o, w in partners[nxt].items() if o in placed
        ]
        if anchors:
            # One integer gather+matvec scores every free spot at once;
            # spot_rank only tie-breaks the (usually few) minima, so the
            # pick is identical to the scalar min over (pull, rank).
            free_arr = np.fromiter(free, dtype=np.intp, count=len(free))
            a_idx = np.asarray([a for a, _ in anchors], dtype=np.intp)
            w_arr = np.asarray([w for _, w in anchors], dtype=np.int64)
            pull = dist[np.ix_(free_arr, a_idx)] @ w_arr
            tied = free_arr[pull == pull.min()]
            spot = int(min(tied, key=spot_rank))
        else:
            spot = min(free, key=spot_rank)
        placed[nxt] = spot
        free.discard(spot)
        remaining.discard(nxt)
    return Layout.from_mapping(placed, target.n_qubits)


#: Named layout strategies accepted wherever a layout is configurable.
LAYOUT_METHODS = {
    "trivial": trivial_layout,
    "dense": dense_layout,
}


def resolve_layout(
    layout: str | Layout | None, circuit: Circuit, target: Target
) -> Layout:
    """Turn a layout argument (name, Layout, or None) into a Layout."""
    if layout is None:
        layout = "dense"
    if isinstance(layout, Layout):
        if len(layout) != target.n_qubits:
            raise ValueError(
                f"layout covers {len(layout)} qubits, target has "
                f"{target.n_qubits}"
            )
        _check_fits(circuit, target)
        return layout.copy()
    try:
        method = LAYOUT_METHODS[layout]
    except KeyError:
        raise ValueError(
            f"unknown layout method {layout!r} "
            f"(expected one of {sorted(LAYOUT_METHODS)})"
        ) from None
    return method(circuit, target)


def _check_fits(circuit: Circuit, target: Target) -> None:
    if circuit.n_qubits > target.n_qubits:
        raise ValueError(
            f"circuit has {circuit.n_qubits} qubits but target "
            f"{target.name or '<unnamed>'} has only {target.n_qubits}"
        )
