"""Experiment harness: one module per research question in the paper.

RQ6 (:mod:`repro.experiments.rq6_connectivity`) and RQ7
(:mod:`repro.experiments.rq7_schedule`) go beyond the paper: the
Rz-vs-U3 IR comparison rerun under hardware connectivity constraints
via :mod:`repro.target`, and the validation of the schedule-driven ESP
cost model against noisy simulation.
"""

from repro.experiments.rq6_connectivity import (
    ConnectivityCase,
    run_connectivity_comparison,
    target_for,
)
from repro.experiments.rq7_schedule import (
    ScheduleCase,
    calibrate,
    run_rq7,
)
from repro.experiments.workflows import best_transpile, matched_thresholds
from repro.pipeline import SynthesizedCircuit

__all__ = [
    "ConnectivityCase",
    "ScheduleCase",
    "SynthesizedCircuit",
    "best_transpile",
    "calibrate",
    "matched_thresholds",
    "run_connectivity_comparison",
    "run_rq7",
    "target_for",
]
