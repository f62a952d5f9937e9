"""Logical-error noise models (paper RQ2/RQ4 setup).

Logical errors are modeled as single-qubit depolarizing channels applied
after selected gates.  The paper's two settings are both expressible:

* RQ2 (most conservative): errors on T gates only, Cliffords error-free.
* RQ4: errors on every non-Pauli gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.circuits.circuit import Gate, canonical_gate_name, is_idle_marker

__all__ = [
    "NoiseModel",
    "canonical_gate_name",
    "depolarizing_kraus",
    "is_idle_marker",
]

_PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

_T_NAMES = frozenset({"t", "tdg"})
_PAULI_NAMES = frozenset({"i", "x", "y", "z"})


def depolarizing_kraus(p: float) -> list[np.ndarray]:
    """Kraus operators of the 1q depolarizing channel with rate ``p``."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("depolarizing rate must be in [0, 1]")
    ops = [math.sqrt(1.0 - p) * np.eye(2, dtype=complex)]
    ops.extend(math.sqrt(p / 3.0) * s for s in _PAULIS)
    return ops


@dataclass(frozen=True)
class NoiseModel:
    """Depolarizing noise attached to gates matching a predicate.

    ``rate`` is the uniform depolarizing rate; the optional ``rates``
    table (canonical gate name -> rate) makes the model heterogeneous,
    as when derived from a hardware target's calibration via
    :meth:`from_target` — ``rate`` then holds the maximum table entry
    so backends can still cheaply test "is this model noisy at all".
    Every engine draws its per-gate channel from :meth:`rate_for`.

    ``idle_rate`` is a T1-style decoherence rate per schedule time
    unit: an idle marker of duration ``d`` (see :func:`is_idle_marker`)
    receives a depolarizing channel of strength ``1 - exp(-idle_rate *
    d)``, so a trajectory's no-error probability over an idle period
    decays exponentially in its slack — the same law the ESP cost
    model (:func:`repro.target.cost.estimate_esp`) predicts.
    """

    rate: float
    applies_to: Callable[[Gate], bool]
    rates: dict[str, float] | None = None
    idle_rate: float = 0.0
    #: Per-undirected-edge 2q rates overriding the name table, as from
    #: a target's ``edge_errors`` calibration.  Keys ``(min, max)``.
    edge_rates: dict[tuple[int, int], float] | None = None
    #: Optional channel factory ``rate -> [Kraus operators]`` replacing
    #: the default depolarizing channel — e.g. amplitude damping.  The
    #: factory's identity participates in the compiled-program cache
    #: key, so two models sharing one factory share channel tables.
    kraus: Callable[[float], list[np.ndarray]] | None = None

    def __post_init__(self) -> None:
        # A negative or NaN rate would fail every engine's ``rate > 0``
        # noisy test and simulate silently noiselessly.  Rates above 1
        # are left to ``depolarizing_kraus``: an idle-only model
        # legitimately carries ``rate = idle_rate``.
        named = [("rate", self.rate), ("idle_rate", self.idle_rate)]
        named += [(f"rates[{k!r}]", r) for k, r in (self.rates or {}).items()]
        named += [
            (f"edge_rates[{k!r}]", r)
            for k, r in (self.edge_rates or {}).items()
        ]
        for label, value in named:
            if not value >= 0.0:
                raise ValueError(
                    f"noise {label} must be a non-negative number, "
                    f"got {value!r}"
                )
        if self.rate == 0.0 and any(value > 0.0 for _, value in named):
            # Engines inject no noise at all when ``rate`` is 0.
            raise ValueError(
                "noise rate is 0 but a per-gate or idle rate is positive; "
                "rate must hold the largest rate of the model"
            )

    def rate_for(self, gate: Gate) -> float:
        """The depolarizing rate following this particular gate."""
        if self.idle_rate > 0.0 and is_idle_marker(gate):
            return -math.expm1(-self.idle_rate * gate.params[0])
        if self.edge_rates is not None and len(gate.qubits) == 2:
            a, b = gate.qubits
            hit = self.edge_rates.get((min(a, b), max(a, b)))
            if hit is not None:
                return hit
        if self.rates is None:
            return self.rate
        return self.rates.get(canonical_gate_name(gate.name), 0.0)

    @staticmethod
    def t_gates_only(rate: float) -> "NoiseModel":
        """RQ2's conservative model: only T gates are noisy."""
        return NoiseModel(
            rate, lambda g: canonical_gate_name(g.name) in _T_NAMES
        )

    @staticmethod
    def non_pauli_gates(rate: float) -> "NoiseModel":
        """RQ4's model: depolarizing after every non-Pauli gate."""
        return NoiseModel(
            rate, lambda g: canonical_gate_name(g.name) not in _PAULI_NAMES
        )

    @staticmethod
    def from_target(target, scale: float = 1.0) -> "NoiseModel":
        """Heterogeneous noise from a target's calibration tables.

        Each gate named in ``target.gate_errors`` gets a depolarizing
        channel at its calibrated rate (times ``scale``); 2q gates on
        an edge listed in ``target.edge_errors`` use the per-edge rate
        instead, matching the ESP cost model's preference order.
        Unlisted gates are noiseless.  Raises ``ValueError`` when the
        target has no (positive) error entries — silently simulating
        noiselessly would be a footgun.
        """
        table = {
            canonical_gate_name(name): float(rate) * scale
            for name, rate in getattr(target, "gate_errors", {}).items()
            if float(rate) > 0.0
        }
        edge_table = {
            (min(a, b), max(a, b)): float(rate) * scale
            for (a, b), rate in getattr(target, "edge_errors", {}).items()
            if float(rate) > 0.0
        }
        if not table and not edge_table:
            raise ValueError(
                f"target {getattr(target, 'name', '') or '<unnamed>'} has "
                "no gate error table to derive noise from"
            )

        def applies(g: Gate) -> bool:
            if len(g.qubits) == 2:
                a, b = g.qubits
                if (min(a, b), max(a, b)) in edge_table:
                    return True
            return table.get(canonical_gate_name(g.name), 0.0) > 0.0

        return NoiseModel(
            max([*table.values(), *edge_table.values()]),
            applies,
            rates=table,
            edge_rates=edge_table or None,
        )

    @staticmethod
    def with_idle(
        base: "NoiseModel | None", idle_rate: float
    ) -> "NoiseModel | None":
        """Extend ``base`` so idle markers decohere at ``idle_rate``.

        The returned model applies ``base``'s channels to every gate
        ``base`` covered, plus a duration-scaled depolarizing channel
        ``1 - exp(-idle_rate * d)`` to each idle marker.  With
        ``idle_rate <= 0`` the base model is returned unchanged; with
        no base model the result is idle-noise only.
        """
        if idle_rate <= 0.0:
            return base
        if base is None or base.rate <= 0.0:
            # No (effective) base noise: idle markers are the only
            # noisy gates; the empty table keeps every other lookup 0.
            return NoiseModel(idle_rate, is_idle_marker, rates={},
                              idle_rate=idle_rate)
        base_applies = base.applies_to
        combined = lambda g: is_idle_marker(g) or base_applies(g)  # noqa: E731
        edge_rates = (
            dict(base.edge_rates) if base.edge_rates is not None else None
        )
        if base.rates is None:
            # Uniform base: ``rate`` doubles as the per-gate rate and
            # must stay exactly the base rate (idle markers short-
            # circuit in rate_for before the uniform fallback).
            return NoiseModel(base.rate, combined, rates=None,
                              idle_rate=idle_rate, edge_rates=edge_rates)
        return NoiseModel(max(base.rate, idle_rate), combined,
                          rates=dict(base.rates), idle_rate=idle_rate,
                          edge_rates=edge_rates)

    def noisy_qubits(self, gate: Gate) -> tuple[int, ...]:
        """Qubits receiving a depolarizing channel after ``gate``."""
        return gate.qubits if self.applies_to(gate) else ()
