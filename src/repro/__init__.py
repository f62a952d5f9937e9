"""repro: reproduction of "Reducing T Gates with Unitary Synthesis".

The package implements trasyn — tensor-network-guided synthesis of
arbitrary single-qubit unitaries into Clifford+T — together with every
substrate the paper's evaluation rests on: a Ross-Selinger gridsynth
baseline, exact Clifford+T enumeration, a quantum-circuit IR and
transpiler, a hardware target model with layout/routing
(:mod:`repro.target`), benchmark circuit generators, noisy simulators,
post-synthesis optimizers, and the :mod:`repro.analysis` verification
layer (IR checkers, per-pass contracts, and a project linter).

Quickstart::

    import numpy as np
    from repro import trasyn, gridsynth_u3, haar_random_u2

    u = haar_random_u2(np.random.default_rng(0))
    ours = trasyn(u, error_threshold=0.01)
    baseline = gridsynth_u3(u, 0.01)
    print(ours.t_count, "T gates vs", baseline.t_count)
"""

from repro.analysis import (
    VerificationError,
    check_basis,
    check_connectivity,
    check_schedule,
    verify_circuit,
    verify_compiled,
)
from repro.circuits import Circuit, CircuitDAG
from repro.enumeration import build_table, get_table
from repro.optimizers import optimize_circuit
from repro.linalg import haar_random_u2, rz, trace_distance, u3
from repro.pipeline import (
    PassManager,
    SynthesisCache,
    compile_batch,
    compile_circuit,
    preset_pipeline,
)
from repro.schedule import (
    Schedule,
    insert_idle_markers,
    schedule_circuit,
    strip_idle_markers,
    with_idle_noise,
)
from repro.synthesis import GateSequence, allocate_eps_budget, synthesize, trasyn
from repro.synthesis.gridsynth import gridsynth_rz, gridsynth_u3
from repro.target import (
    CouplingMap,
    EspEstimate,
    Layout,
    RoutingMetrics,
    RoutingResult,
    Target,
    estimate_esp,
    parse_target,
    route_circuit,
)
from repro.transpiler import transpile

__version__ = "1.3.0"

__all__ = [
    "Circuit",
    "CircuitDAG",
    "CouplingMap",
    "EspEstimate",
    "GateSequence",
    "Layout",
    "PassManager",
    "RoutingMetrics",
    "RoutingResult",
    "Schedule",
    "SynthesisCache",
    "Target",
    "VerificationError",
    "allocate_eps_budget",
    "build_table",
    "check_basis",
    "check_connectivity",
    "check_schedule",
    "compile_batch",
    "compile_circuit",
    "estimate_esp",
    "get_table",
    "insert_idle_markers",
    "gridsynth_rz",
    "gridsynth_u3",
    "haar_random_u2",
    "optimize_circuit",
    "parse_target",
    "preset_pipeline",
    "route_circuit",
    "rz",
    "schedule_circuit",
    "strip_idle_markers",
    "synthesize",
    "trace_distance",
    "transpile",
    "trasyn",
    "u3",
    "verify_circuit",
    "verify_compiled",
    "with_idle_noise",
]
