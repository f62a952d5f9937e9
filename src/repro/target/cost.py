"""The ESP cost model: estimated success probability of a compiled circuit.

ESP is the compiler-side prediction of what the noisy simulators
measure: the probability that a circuit execution suffers *no* error
event at all,

    ESP = prod_gates (1 - err(g)) * prod_qubits exp(-idle_rate * idle_q)

where per-gate errors come from the target's calibration tables
(per-edge rates for 2q gates when available, per-gate-name rates
otherwise) and idle exposure comes from the ASAP schedule
(:mod:`repro.schedule`).  Under the depolarizing trajectory unravelling
the no-error branch has fidelity 1 and probability exactly ESP, so
simulated fidelity satisfies ``fidelity >= ESP`` with the gap equal to
the (small) residual overlap of error branches — the relation
``experiments/rq7_schedule.py`` validates.

This is the objective ``compile_circuit(objective='esp')`` maximizes,
closing the loop between the target model, the optimizer stack, and
the simulators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from repro.circuits.circuit import (
    Circuit,
    Gate,
    canonical_gate_name,
    is_idle_marker,
)
from repro.schedule import Schedule, schedule_circuit
from repro.target.target import Target


def gate_error(target: Target, gate: Gate) -> float:
    """Calibrated error rate of one gate occurrence on ``target``.

    2q gates on an edge listed in the per-edge table use that rate;
    any other gate uses its own per-gate entry (a swap never inherits
    the ``cx`` rate).  Idle markers use the target's idle rate scaled
    by their duration.  Uncalibrated gates are error-free.  This is
    exactly the resolution order
    :meth:`repro.sim.NoiseModel.from_target` injects with, so the ESP
    prediction stays a lower bound on what the simulators measure.
    """
    if is_idle_marker(gate):
        rate = target.idle_error_rate
        return -math.expm1(-rate * gate.params[0]) if rate > 0 else 0.0
    name = canonical_gate_name(gate.name)
    if len(gate.qubits) == 2:
        a, b = gate.qubits
        hit = target.edge_errors.get((min(a, b), max(a, b)))
        # Zero/absent edge entries fall through to the name table,
        # mirroring from_target's positive-rate filter.
        if hit is not None and hit > 0.0:
            return hit
    return target.gate_errors.get(name, 0.0)


def gate_success(target: Target, gate: Gate) -> float:
    """No-error probability of one gate occurrence.

    The noise model applies one depolarizing channel per *qubit* of a
    noisy gate (:meth:`NoiseModel.noisy_qubits`), so a 2q gate at rate
    ``p`` survives with probability ``(1-p)^2`` — the exponent keeps
    the prediction aligned with what the simulators actually inject.
    Idle markers are single events regardless of duration.
    """
    err = gate_error(target, gate)
    if err <= 0.0:
        return 1.0
    if is_idle_marker(gate):
        return 1.0 - err
    return max(0.0, 1.0 - err) ** len(gate.qubits)


@dataclass(frozen=True)
class EspEstimate:
    """Breakdown of one ESP prediction."""

    esp: float
    gate_success: float  # product over gate events
    idle_success: float  # exp(-idle_rate * total idle)
    n_noisy_gates: int
    total_idle: float
    makespan: float

    def summary(self) -> str:
        return (
            f"ESP {self.esp:.4f} (gates {self.gate_success:.4f} x "
            f"idle {self.idle_success:.4f}; {self.n_noisy_gates} noisy "
            f"gates, idle {self.total_idle:g} over makespan "
            f"{self.makespan:g})"
        )


def estimate_esp(
    circuit: Circuit,
    target: Target,
    schedule: Schedule | None = None,
    durations: Mapping[str, float] | None = None,
    include_idle: bool = True,
) -> EspEstimate:
    """Predicted success probability of ``circuit`` on ``target``.

    The gate term multiplies per-gate survival probabilities from the
    calibration tables; the idle term charges ``exp(-idle_error_rate *
    slack)`` per qubit, with slack read off the ASAP schedule
    (computed here unless one is passed in).  Idle markers already
    present in the circuit are charged as gates, not double-counted
    through the schedule.
    """
    gate_term = 1.0
    n_noisy = 0
    has_markers = False
    for g in circuit.gates:
        if is_idle_marker(g):
            has_markers = True
        success = gate_success(target, g)
        if success < 1.0:
            gate_term *= success
            n_noisy += 1
    idle_term = 1.0
    total_idle = 0.0
    if schedule is None:
        schedule = schedule_circuit(circuit, target, durations)
    if include_idle and not has_markers and target.idle_error_rate > 0.0:
        total_idle = schedule.total_idle
        idle_term = math.exp(-target.idle_error_rate * total_idle)
    return EspEstimate(
        esp=gate_term * idle_term,
        gate_success=gate_term,
        idle_success=idle_term,
        n_noisy_gates=n_noisy,
        total_idle=total_idle,
        makespan=schedule.makespan,
    )
