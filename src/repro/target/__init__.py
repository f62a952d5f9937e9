"""Hardware target model and connectivity-constrained compilation.

The compiler-facing view of a device: :class:`Target` (qubit count,
:class:`CouplingMap`, basis gates, error/duration tables), initial
placement (:func:`trivial_layout` / :func:`dense_layout`), SABRE-style
swap routing (:func:`route_dag` / :func:`route_circuit`), the naive
adjacent-transposition baseline (:func:`naive_route`), and CX
direction fixing for directed couplings.  ``parse_target`` implements
the CLI target-string grammar (``line:8``, ``grid:3x3``, ``ring:12``,
``heavy_hex:3``, ``all_to_all:5``, ``*.json``).
"""

from repro.target.cost import (
    EspEstimate,
    estimate_esp,
    gate_error,
    gate_success,
)
from repro.target.coupling import CouplingMap
from repro.target.layout import (
    LAYOUT_METHODS,
    Layout,
    dense_layout,
    resolve_layout,
    trivial_layout,
)
from repro.target.routing import (
    RoutingMetrics,
    RoutingResult,
    fix_gate_directions,
    naive_route,
    on_coupling_edges,
    permute_statevector,
    route_circuit,
    route_dag,
    routed_statevector_equivalent,
)
from repro.target.target import DEFAULT_BASIS_GATES, Target, parse_target

__all__ = [
    "CouplingMap",
    "DEFAULT_BASIS_GATES",
    "EspEstimate",
    "LAYOUT_METHODS",
    "Layout",
    "RoutingMetrics",
    "RoutingResult",
    "Target",
    "dense_layout",
    "estimate_esp",
    "fix_gate_directions",
    "gate_error",
    "gate_success",
    "naive_route",
    "on_coupling_edges",
    "parse_target",
    "permute_statevector",
    "resolve_layout",
    "route_circuit",
    "route_dag",
    "routed_statevector_equivalent",
    "trivial_layout",
]
