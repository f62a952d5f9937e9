"""Time-aware compilation: ASAP/ALAP schedules and idle accounting.

The scheduler subsystem turns a circuit plus a target's
``gate_durations`` into per-qubit timelines (:class:`Schedule`):
makespan (the critical-path time), idle-slack accounting, an ASCII
timeline renderer, and idle-marker insertion so the simulation
backends can apply duration-scaled idle noise.  The ESP cost model
(:mod:`repro.target.cost`) and the epsilon-budget allocator
(:mod:`repro.synthesis.budget`) both build on these schedules.
"""

from repro.schedule.scheduler import (
    DEFAULT_DURATION_1Q,
    DEFAULT_DURATION_2Q,
    DEFAULT_DURATIONS,
    SCHEDULE_METHODS,
    GateSpan,
    Schedule,
    duration_of,
    idle_marker,
    insert_idle_markers,
    node_slacks,
    schedule_circuit,
    schedule_dag,
    strip_idle_markers,
    with_idle_noise,
)

__all__ = [
    "DEFAULT_DURATION_1Q",
    "DEFAULT_DURATION_2Q",
    "DEFAULT_DURATIONS",
    "GateSpan",
    "SCHEDULE_METHODS",
    "Schedule",
    "duration_of",
    "idle_marker",
    "insert_idle_markers",
    "node_slacks",
    "schedule_circuit",
    "schedule_dag",
    "strip_idle_markers",
    "with_idle_noise",
]
