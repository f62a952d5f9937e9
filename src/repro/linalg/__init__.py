"""Dense linear-algebra utilities for single-qubit unitaries.

This subpackage provides the numerical foundations shared by every
synthesis algorithm in the repository: standard gate matrices, Haar
sampling, the paper's trace-based unitary distance (Equation (2)), and
Euler-angle decompositions used by the transpiler.
"""

from repro.linalg.su2 import (
    GATES,
    check_unitary_2x2,
    haar_random_su2,
    haar_random_u2,
    is_unitary,
    normalize_phase,
    rx,
    ry,
    rz,
    trace_distance,
    trace_value,
    u3,
    zyz_angles,
)

__all__ = [
    "GATES",
    "check_unitary_2x2",
    "haar_random_su2",
    "haar_random_u2",
    "is_unitary",
    "normalize_phase",
    "rx",
    "ry",
    "rz",
    "trace_distance",
    "trace_value",
    "u3",
    "zyz_angles",
]
