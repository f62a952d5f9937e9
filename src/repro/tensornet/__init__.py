"""Matrix-product-state machinery: trasyn's trace MPS and circuit MPS."""

from repro.tensornet.circuit_mps import CircuitMPS
from repro.tensornet.mps import CanonicalTail, TraceMPS

__all__ = ["CanonicalTail", "CircuitMPS", "TraceMPS"]
