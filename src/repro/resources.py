"""Fault-tolerant resource estimation from synthesized circuits.

The paper's motivation (§1-2): T gates dominate FT cost because each
consumes a distilled magic state, and near-term machines are
qubit-starved, so T *count* converts directly into execution time.
This module provides the standard first-order surface-code model used
by resource-estimation studies (Gidney-Ekera style):

* code distance ``d`` from the target logical error budget,
* physical qubits per logical qubit = 2 d^2,
* one T gate consumed per factory cycle; factories produce states at a
  throughput set by the distillation depth.

The numbers are order-of-magnitude planning estimates — exactly how the
paper frames the benefit of a 1.4-3.5x T-count reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.circuits import Circuit, t_count, t_depth


@dataclass(frozen=True)
class SurfaceCodeModel:
    """First-order surface-code cost model."""

    physical_error_rate: float = 1e-3
    cycle_time_us: float = 1.0
    factory_count: int = 2
    factory_cycles_per_state: int = 6  # 15-to-1 distillation rounds (in d units)

    def code_distance(self, logical_error_budget: float, n_logical: int,
                      n_cycles: int) -> int:
        """Smallest odd distance meeting the logical error budget.

        Uses the standard scaling p_L ~ 0.1 (100 p / p_th)^((d+1)/2) with
        p_th = 1e-2, accumulated over qubits and cycles.
        """
        if logical_error_budget <= 0:
            raise ValueError("error budget must be positive")
        volume = max(1, n_logical * n_cycles)
        per_cell = logical_error_budget / volume
        ratio = self.physical_error_rate / 1e-2
        if ratio >= 1:
            raise ValueError("physical error rate above threshold")
        d = 3
        while 0.1 * ratio ** ((d + 1) / 2) > per_cell:
            d += 2
            if d > 99:
                raise ValueError(
                    f"no surface-code distance <= 99 meets the logical "
                    f"error budget {logical_error_budget:g} over "
                    f"{n_logical} qubits x {n_cycles} cycles at physical "
                    f"rate {self.physical_error_rate:g}; relax the budget "
                    f"or improve the physical error rate"
                )
        return d


@dataclass(frozen=True)
class ResourceEstimate:
    """Planning estimate for one synthesized Clifford+T circuit."""

    t_count: int
    t_depth: int
    code_distance: int
    logical_qubits: int
    physical_qubits: int
    execution_cycles: int
    execution_seconds: float
    magic_states: int

    def summary(self) -> str:
        return (
            f"T={self.t_count} (depth {self.t_depth}), d={self.code_distance}, "
            f"{self.logical_qubits} logical / {self.physical_qubits} physical "
            f"qubits, {self.magic_states} magic states, "
            f"~{self.execution_seconds:.3g}s"
        )


def estimate_resources(
    circuit: Circuit,
    logical_error_budget: float = 1e-2,
    model: SurfaceCodeModel | None = None,
) -> ResourceEstimate:
    """Estimate surface-code resources for a Clifford+T circuit.

    Execution time is T-limited: the circuit advances one T *layer* per
    batch of available magic states (the paper's 'T gates dictate
    execution time' premise); Clifford layers ride along for free.
    """
    if model is None:
        model = SurfaceCodeModel()
    n_t = t_count(circuit)
    n_td = t_depth(circuit)
    n_logical = circuit.n_qubits
    # Rough cycle count to size the distance: T depth times d cycles each.
    d_guess = 15
    cycles_guess = max(1, n_td) * d_guess
    d = model.code_distance(logical_error_budget, n_logical, cycles_guess)
    # Factory-limited throughput: states per d-cycle block.
    states_per_block = model.factory_count / model.factory_cycles_per_state
    blocks = math.ceil(n_t / max(states_per_block, 1e-9)) if n_t else 0
    cycles = max(blocks, n_td) * d
    seconds = cycles * model.cycle_time_us * 1e-6
    factory_qubits = model.factory_count * 2 * (2 * d) ** 2
    physical = n_logical * 2 * d * d + factory_qubits
    return ResourceEstimate(
        t_count=n_t,
        t_depth=n_td,
        code_distance=d,
        logical_qubits=n_logical,
        physical_qubits=physical,
        execution_cycles=cycles,
        execution_seconds=seconds,
        magic_states=n_t,
    )
