"""Lowering helpers shared by the experiment runners (paper Figure 3(a)).

The paper compares two compilation flows from an input circuit to
Clifford+T:

* **trasyn / U3 flow**: transpile to CX+U3 (merging rotations), then
  synthesize each nontrivial U3 directly with trasyn.
* **gridsynth / Rz flow**: transpile to CX+H+Rz (Equation (1)), then
  synthesize each nontrivial Rz with gridsynth.

The runners lower both IRs here with :func:`matched_thresholds`, then
synthesize each through :func:`repro.pipeline.compile_circuit` with
``pre_transpiled=True``.  Every rotation draws from its own
``rng_for_key(seed, key)`` generator, so results do not depend on case
order or cache warmth.
"""

from __future__ import annotations

from repro.circuits import Circuit, rotation_count
from repro.pipeline import (
    DEFAULT_EPS,
    best_preset_lowering,
    best_preset_lowerings,
)

__all__ = ["best_transpile", "matched_thresholds"]


def best_transpile(circuit: Circuit, basis: str) -> Circuit:
    """Pick the transpile preset with fewest rotations (Section 3.4)."""
    return best_preset_lowering(circuit, basis)


def matched_thresholds(
    circuit: Circuit, base_eps: float = DEFAULT_EPS
) -> tuple[Circuit, Circuit, float, float]:
    """Transpile both IRs and match circuit-level error budgets.

    Following the paper's RQ3 setup: trasyn synthesizes U3 rotations at
    ``base_eps``; gridsynth's per-rotation threshold is scaled by the
    rotation-count ratio so both flows land at the same circuit-level
    error budget (n_u3 * base_eps).  Both IRs come from one preset-grid
    call, so the passes the two bases share run once.
    """
    u3_circ, rz_circ = best_preset_lowerings(circuit, ("u3", "rz"))
    n_u3 = max(1, rotation_count(u3_circ))
    n_rz = max(1, rotation_count(rz_circ))
    grid_eps = base_eps * n_u3 / n_rz
    return u3_circ, rz_circ, base_eps, grid_eps
