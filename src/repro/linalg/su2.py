"""Single-qubit unitary helpers: gates, metrics, and decompositions.

The synthesis problem in the paper is stated over 2x2 unitaries, with
closeness measured by the Hilbert-Schmidt trace value |Tr(U^dag V)| / N
and the derived *unitary distance*

    D(U, V) = sqrt(1 - |Tr(U^dag V)|^2 / N^2)        (paper Eq. (2))

which is insensitive to global phase.  All functions here operate on
plain numpy ``complex128`` arrays.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

_SQRT2 = math.sqrt(2.0)

# Standard fault-tolerant gate set {H, S, T, X, Y, Z} plus a few extras
# used by the transpiler and tests.  All matrices are exact up to float
# rounding.
GATES: dict[str, np.ndarray] = {
    "I": np.eye(2, dtype=complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / _SQRT2,
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "Sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
    "T": np.array([[1, 0], [0, cmath.exp(1j * math.pi / 4)]], dtype=complex),
    "Tdg": np.array([[1, 0], [0, cmath.exp(-1j * math.pi / 4)]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def rx(theta: float) -> np.ndarray:
    """Rotation about the X axis by ``theta``."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def ry(theta: float) -> np.ndarray:
    """Rotation about the Y axis by ``theta``."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz(theta: float) -> np.ndarray:
    """Rotation about the Z axis by ``theta`` (paper's synthesis target)."""
    return np.array(
        [[cmath.exp(-0.5j * theta), 0], [0, cmath.exp(0.5j * theta)]],
        dtype=complex,
    )


def u3(theta: float, phi: float, lam: float) -> np.ndarray:
    """General single-qubit unitary in the U3 parameterization.

    U3(theta, phi, lam) = Rz(phi) Ry(theta) Rz(lam) up to global phase,
    written in the standard matrix form used by circuit IRs.
    """
    ct, st = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [
            [ct, -cmath.exp(1j * lam) * st],
            [cmath.exp(1j * phi) * st, cmath.exp(1j * (phi + lam)) * ct],
        ],
        dtype=complex,
    )


def is_unitary(m: np.ndarray, tol: float = 1e-9) -> bool:
    """Return True when ``m`` is unitary to within ``tol``."""
    m = np.asarray(m, dtype=complex)
    if m.shape[0] != m.shape[1]:
        return False
    return bool(np.allclose(m.conj().T @ m, np.eye(m.shape[0]), atol=tol))


# Largest ||U^dag U - I|| (Frobenius) a synthesis target may have.
UNITARITY_TOL = 1e-6


def check_unitary_2x2(m, name: str, error: type[ValueError] = ValueError) -> None:
    """Raise ``error`` naming ``name`` unless ``m`` is a finite 2x2 unitary."""
    try:
        m = np.asarray(m, dtype=complex)
    except (TypeError, ValueError):
        raise error(f"{name} must be a numeric 2x2 matrix") from None
    if m.shape != (2, 2):
        raise error(f"{name} must be a 2x2 matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise error(f"{name} has non-finite entries")
    dev = float(np.linalg.norm(m.conj().T @ m - np.eye(2)))
    if not dev <= UNITARITY_TOL:
        raise error(
            f"{name} is not unitary: ||U^dag U - I|| = {dev:.3g} "
            f"> {UNITARITY_TOL:g}"
        )


def trace_value(u: np.ndarray, v: np.ndarray) -> float:
    """Hilbert-Schmidt overlap |Tr(U^dag V)| / N (1.0 means equal up to phase)."""
    n = u.shape[0]
    return abs(np.trace(u.conj().T @ v)) / n


def trace_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Unitary distance from paper Eq. (2); phase-insensitive, in [0, 1]."""
    t = trace_value(u, v)
    return math.sqrt(max(0.0, 1.0 - t * t))


def normalize_phase(u: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Fix the global phase so the first non-negligible entry is real positive.

    Two matrices equal up to global phase normalize to the same array,
    which makes float-keyed deduplication (enumeration step 0) possible.
    """
    flat = u.reshape(-1)
    for x in flat:
        if abs(x) > tol:
            return u * (abs(x) / x)
    return u.copy()


def haar_random_su2(rng: np.random.Generator) -> np.ndarray:
    """Draw a Haar-random element of SU(2)."""
    # Haar measure on SU(2) == uniform on the unit 3-sphere of
    # quaternion coefficients.
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    a, b, c, d = q
    return np.array(
        [[a + 1j * b, c + 1j * d], [-c + 1j * d, a - 1j * b]], dtype=complex
    )


def haar_random_u2(rng: np.random.Generator) -> np.ndarray:
    """Draw a Haar-random element of U(2) (SU(2) times a random phase)."""
    phase = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    return phase * haar_random_su2(rng)


def zyz_angles(u: np.ndarray) -> tuple[float, float, float, float]:
    """Decompose ``u`` as e^{i alpha} Rz(phi) Ry(theta) Rz(lam).

    Returns ``(theta, phi, lam, alpha)``.  The decomposition always
    exists; angle conventions match :func:`u3` so that
    ``exp(i alpha') * u3(theta, phi, lam)`` reconstructs ``u``.
    """
    u = np.asarray(u, dtype=complex)
    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    alpha = cmath.phase(det) / 2.0
    su = u * cmath.exp(-1j * alpha)
    # su is in SU(2): [[a, -b*], [b, a*]]
    a, b = su[0, 0], su[1, 0]
    theta = 2.0 * math.atan2(abs(b), abs(a))
    if abs(a) < 1e-12:
        # theta == pi: only phi - lam is determined; set lam = 0.
        phi = 2.0 * cmath.phase(b)
        lam = 0.0
    elif abs(b) < 1e-12:
        # theta == 0: only phi + lam is determined; set lam = 0.
        phi = 2.0 * cmath.phase(a.conjugate())
        lam = 0.0
    else:
        phi = cmath.phase(b) - cmath.phase(a)
        lam = -cmath.phase(b) - cmath.phase(a)
    return theta, phi, lam, alpha
