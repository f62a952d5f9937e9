"""gridsynth baseline: number-theoretic Rz synthesis (Ross-Selinger)."""

from repro.synthesis.gridsynth.exact_synthesis import (
    ExactSynthesisError,
    exact_synthesize,
)
from repro.synthesis.gridsynth.rz_approx import (
    GridsynthArgumentError,
    GridsynthError,
    gridsynth_rz,
    gridsynth_u3,
    rz_distance,
)

__all__ = [
    "ExactSynthesisError",
    "GridsynthArgumentError",
    "GridsynthError",
    "exact_synthesize",
    "gridsynth_rz",
    "gridsynth_u3",
    "rz_distance",
]
