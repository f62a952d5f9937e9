"""Exact arithmetic rings used by number-theoretic synthesis.

``Z[sqrt(2)]`` and ``Z[omega]`` (omega = exp(i pi/4)) are the rings in
which Clifford+T matrix entries live, up to powers of ``1/sqrt(2)``.
The gridsynth baseline (Ross-Selinger) and the exact Clifford+T
synthesizer both run entirely on these exact representations, so
unitarity and T counts carry mathematical guarantees instead of float
tolerances.
"""

from repro.rings.zsqrt2 import LAMBDA, LAMBDA_INV, SQRT2, ZSqrt2
from repro.rings.zomega import ZOmega

__all__ = ["LAMBDA", "LAMBDA_INV", "SQRT2", "ZSqrt2", "ZOmega"]
