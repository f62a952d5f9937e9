"""Single-qubit fault-tolerant synthesis algorithms.

The package's primary contribution (:func:`trasyn`) plus every baseline
the paper evaluates against: gridsynth (number-theoretic Rz synthesis),
the gridsynth-based U3 workflow, and a Synthetiq-style
simulated-annealing search.
"""

from repro.synthesis.budget import (
    allocate_eps_budget,
    eps_schedule_total,
    flat_eps_schedule,
    is_budgeted_rotation,
    rotation_criticalities,
)
from repro.synthesis.sequences import GateSequence, clifford_count_of, t_count_of
from repro.synthesis.trasyn import TrasynResult, simplify_sequence, synthesize, trasyn

__all__ = [
    "GateSequence",
    "TrasynResult",
    "allocate_eps_budget",
    "clifford_count_of",
    "eps_schedule_total",
    "flat_eps_schedule",
    "is_budgeted_rotation",
    "rotation_criticalities",
    "simplify_sequence",
    "synthesize",
    "t_count_of",
    "trasyn",
]
