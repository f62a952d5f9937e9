"""Criticality-weighted allocation of a circuit-level accuracy budget.

The paper's RQ2 sweeps a single flat per-rotation threshold and shows
synthesis accuracy trading off against T count (and therefore against
schedule length and noisy-execution fidelity).  This module re-runs
that tradeoff *per gate*: given one circuit-level error budget, each
nontrivial rotation receives a slice in inverse proportion to its
schedule criticality.  Rotations on the critical path (zero slack) get
the tightest epsilon — their synthesis error cannot be compensated and
their T sequences stretch the makespan anyway — while slack-rich
rotations get loose, cheap thresholds, shortening the schedule where
it is free to shrink.

The additive union bound the flat scheme relies on is preserved: the
slices sum to the requested budget, so
``SynthesizedCircuit.total_synthesis_error`` stays bounded by it.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.circuits.circuit import Circuit, Gate
from repro.circuits.dag import CircuitDAG
from repro.circuits.metrics import is_trivial_angle
from repro.schedule import node_slacks

#: Synthesis thresholds outside this band are useless (gridsynth and
#: trasyn both expect eps well below 1; absurdly tight slices only
#: burn time without affecting the union bound).
EPS_FLOOR = 1e-10
EPS_CEIL = 0.45
#: Cap on the loosest-to-tightest slice ratio.  Unbounded ``1/c``
#: weights hand near-zero epsilons to critical-path rotations the
#: moment a few slack-rich rotations inflate the normalizer — and
#: synthesis cost explodes as eps shrinks (the RQ2 law), so the spread
#: is clamped to a factor the synthesizers absorb gracefully.
MAX_WEIGHT_RATIO = 4.0


def check_threshold(name: str, value: float) -> None:
    """Reject a NaN, infinite, zero or negative accuracy threshold."""
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(
            f"{name} must be a finite positive number, got {value!r}"
        )


def is_budgeted_rotation(gate: Gate) -> bool:
    """Whether :func:`repro.pipeline.synthesize_lowered` synthesizes it.

    Matches the synthesizer's own skip logic: trivial-angle rotations
    lower to exact Clifford+T words and consume no budget.
    """
    if gate.name == "u3":
        return not all(is_trivial_angle(p) for p in gate.params)
    if gate.name in ("rx", "ry", "rz"):
        return not is_trivial_angle(gate.params[0])
    return False


def rotation_criticalities(lowered: Circuit, target=None) -> list[float]:
    """Criticality in (0, 1] of each budgeted rotation, in gate order.

    A rotation's criticality is the length of the longest schedule path
    through it divided by the makespan — equivalently ``1 - slack /
    makespan`` with slack from the ASAP/ALAP spread.  Critical-path
    rotations score 1.0.  Durations come from ``target.gate_durations``
    (defaults without a target).
    """
    dag = CircuitDAG.from_circuit(lowered)
    makespan, slacks = node_slacks(dag, target)
    out: list[float] = []
    for node in dag.nodes():
        if not is_budgeted_rotation(node.gate):
            continue
        if makespan <= 0:
            out.append(1.0)
            continue
        crit = 1.0 - slacks[node.id] / makespan
        out.append(min(1.0, max(crit, 1.0 / (1.0 + makespan))))
    return out


def allocate_eps_budget(
    lowered: Circuit, budget: float, target=None
) -> list[float]:
    """Split a circuit-level accuracy budget across rotations.

    Returns one epsilon per budgeted rotation (flat gate order, the
    order :func:`repro.pipeline.synthesize_lowered` consumes them in):
    ``eps_i = budget * (1/c_i) / sum_j (1/c_j)`` with ``c_i`` the
    schedule criticality under ``target``'s gate durations — slack-rich
    rotations take the big, cheap slices; critical ones are synthesized
    tightest.  Weights are clamped to a spread of
    :data:`MAX_WEIGHT_RATIO` and slices to ``[EPS_FLOOR, EPS_CEIL]``
    (clipping only ever lowers the total, so the additive union bound
    still holds).  A NaN, infinite or
    non-positive ``budget`` raises ``ValueError``.
    """
    check_threshold("accuracy budget", budget)
    crits = rotation_criticalities(lowered, target)
    if not crits:
        return []
    weights = [min(1.0 / c, MAX_WEIGHT_RATIO) for c in crits]
    total = sum(weights)
    return [
        min(EPS_CEIL, max(EPS_FLOOR, budget * w / total)) for w in weights
    ]


def flat_eps_schedule(lowered: Circuit, eps: float) -> list[float]:
    """The flat baseline: every budgeted rotation at the same eps."""
    return [eps for g in lowered.gates if is_budgeted_rotation(g)]


def eps_schedule_total(eps_schedule: Sequence[float]) -> float:
    """The additive error bound a schedule commits to."""
    return float(sum(eps_schedule))
