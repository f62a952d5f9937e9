"""The exact density-matrix engine behind the backend protocol.

Exact open-system evolution with explicit Kraus sums, 4^n memory,
hard-guarded at ``max_qubits`` (default 12, the paper's
fidelity-evaluation cutoff).  It is the ground truth the stochastic
engines are validated against.

Like the other two engines it runs a compiled
:class:`~repro.sim.program.SimProgram` rather than the circuit: the
flat, unfused program the MPS engine uses (same cache entry).  The run
is one pass over that program in Liouville form.  Each qubit keeps a
pending 4x4 superoperator on its (ket, bra) axis pair: a 1q operator
``U`` left-multiplies ``kron(U, U.conj())`` onto it and a noise event
its channel's ``sum_k kron(K, K.conj())``, each built once per distinct
matrix or Kraus table per run.  The full rank-2n state is contracted
once per 2q operator, as one 16x16 superoperator on the pair's ket and
bra axes with both qubits' pending superoperators folded in, and once
per qubit with a pending superoperator at the end.  Clifford+T output
has long 1q runs between CXs, so a run makes about one contraction per
CX instead of two per gate plus eight per four-Kraus noise event.  Fused
products reorder floating-point operations: states match gate-by-gate
evolution to about 1e-14, and repeated runs are identical bit for bit.
"""

from __future__ import annotations

import time

import numpy as np

from repro.circuits.circuit import Circuit
from repro.sim.backends.base import (
    _ITEMSIZE,
    SimulationResult,
    SimulatorBackend,
    reference_statevector,
)
from repro.sim.noise import NoiseModel
from repro.sim.program import ProgramCache, SimProgram, default_program_cache


class DensityMatrixResult(SimulationResult):
    """Exact mixed state: fidelity is <psi|rho|psi> with no sampling."""

    backend = "density"

    def __init__(self, rho: np.ndarray, n_qubits: int, wall_time: float):
        self.rho = rho
        self.n_qubits = n_qubits
        self.wall_time = wall_time

    def fidelity(self, reference) -> float:
        psi = reference_statevector(reference, self.n_qubits)
        return float(np.real(psi.conj() @ self.rho @ psi))

    def statevector(self) -> np.ndarray:
        """Dominant eigenvector — valid only for (near-)pure states."""
        vals, vecs = np.linalg.eigh(self.rho)
        if vals[-1] < 1.0 - 1e-9:
            raise ValueError(
                "density matrix is mixed; no single statevector exists"
            )
        return np.ascontiguousarray(vecs[:, -1])


_EYE4 = np.eye(4, dtype=complex)


def _liouville(m: np.ndarray) -> np.ndarray:
    """The superoperator of ``rho -> m rho m^dag`` on (ket, bra) indices."""
    return np.kron(m, m.conj())


def _pair_superop(sa: np.ndarray, sb: np.ndarray) -> np.ndarray:
    """1q superoperators on a pair's two qubits as one 16x16 superoperator.

    The result acts on (ket a, ket b, bra a, bra b), the index order of
    ``_liouville`` of a 2q operator on ``(a, b)``.
    """
    return np.einsum(
        "aceg,bdfh->abcdefgh", sa.reshape(2, 2, 2, 2), sb.reshape(2, 2, 2, 2)
    ).reshape(16, 16)


def _apply_superop(
    rho: np.ndarray, s: np.ndarray, qubits: tuple[int, ...], n: int
) -> np.ndarray:
    """Contract a superoperator into the ket and bra axes of ``qubits``.

    ``s`` acts on the row-major index (kets of ``qubits``, then their
    bras), which is the index order of :func:`_liouville`.
    """
    axes = [*qubits, *(n + q for q in qubits)]
    k = len(axes)
    s = s.reshape((2,) * (2 * k))
    rho = np.tensordot(s, rho, axes=(list(range(k, 2 * k)), axes))
    return np.moveaxis(rho, list(range(k)), axes)


class DensityMatrixBackend(SimulatorBackend):
    """Exact density-matrix simulation (4^n memory, <= max_qubits)."""

    name = "density"

    def __init__(
        self,
        max_qubits: int = 12,
        program_cache: ProgramCache | None = None,
    ):
        self.max_qubits = max_qubits
        self.program_cache = program_cache

    def supports(self, n_qubits: int, noisy: bool) -> bool:
        return n_qubits <= self.max_qubits

    def memory_bytes(self, n_qubits: int, noisy: bool = True) -> int:
        return _ITEMSIZE * 4**n_qubits

    def run(
        self, circuit: Circuit, noise: NoiseModel | None = None
    ) -> DensityMatrixResult:
        start = time.monotonic()
        n = circuit.n_qubits
        if n > self.max_qubits:
            raise ValueError(
                f"density-matrix simulation of {n} qubits refused "
                f"(limit {self.max_qubits})"
            )
        cache = self.program_cache
        if cache is None:
            cache = default_program_cache()
        program = cache.get(circuit, noise, fused=False)
        return DensityMatrixResult(
            self._run_program(program), n, time.monotonic() - start
        )

    def _run_program(self, program: SimProgram) -> np.ndarray:
        """The final ``(2^n, 2^n)`` density matrix of a compiled program."""
        n = program.n_qubits
        dim = 2**n
        rho = np.zeros((dim, dim), dtype=complex)
        rho[0, 0] = 1.0
        rho = rho.reshape((2,) * (2 * n))
        # Superoperators by id of their matrix or Kraus table, which the
        # program keeps alive for the whole run.
        supers: dict[int, np.ndarray] = {}
        pending: dict[int, np.ndarray] = {}
        for ops, events in program.layers:
            for op in ops:
                s = supers.get(id(op.matrix))
                if s is None:
                    s = supers[id(op.matrix)] = _liouville(op.matrix)
                if len(op.qubits) == 1:
                    q = op.qubits[0]
                    acc = pending.get(q)
                    pending[q] = s if acc is None else s @ acc
                    continue
                # Fold the pair's pending superoperators into this one.
                a, b = op.qubits
                sa, sb = pending.pop(a, _EYE4), pending.pop(b, _EYE4)
                if sa is not _EYE4 or sb is not _EYE4:
                    s = s @ _pair_superop(sa, sb)
                rho = _apply_superop(rho, s, op.qubits, n)
            for ev in events:
                s = supers.get(id(ev.kraus))
                if s is None:
                    s = supers[id(ev.kraus)] = sum(
                        _liouville(k) for k in ev.kraus
                    )
                acc = pending.get(ev.qubit)
                pending[ev.qubit] = s if acc is None else s @ acc
        for q in sorted(pending):
            rho = _apply_superop(rho, pending[q], (q,), n)
        return rho.reshape(dim, dim)
