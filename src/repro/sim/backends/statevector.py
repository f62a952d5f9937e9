"""Vectorized statevector simulation with Monte-Carlo Kraus trajectories.

Noise is unravelled into quantum trajectories: each trajectory is a pure
state, every Kraus channel becomes a weighted random choice of one Kraus
operator, and the noisy density matrix is the empirical average over
trajectories.  Memory is ``O(n_traj * 2^n)`` instead of ``4^n``, which
both breaks the 12-qubit density-matrix wall and — because trajectories
are batched as one stacked ``(n_traj, 2, ..., 2)`` array driven through
the same BLAS calls — beats the density matrix on wall-clock well below
it.

Execution is two-phase: the circuit and noise model are JIT-compiled
once per run into a flat :class:`~repro.sim.program.SimProgram` under
the engine's fixed ``fused=True`` recipe — precomputed dense matrices
(including 1q/2q fusion products) in DAG front-layer order, resolved
channel tables, and per-event uniform columns — memoized in a shared
:class:`~repro.sim.program.ProgramCache` and driven read-only by every
chunk and worker.  Mixture outcome choices for a whole chunk come from
one batched ``searchsorted`` per distinct channel, and the identity
outcome (the overwhelming majority at calibrated rates) is skipped
outright.

Determinism
-----------
Trajectory ``t`` consumes only the uniform stream of
``np.random.default_rng([seed, t])``, pre-drawn as one row of a
``(n_traj, n_events)`` matrix (the number of noise events per circuit is
known upfront).  Results are therefore bit-identical regardless of chunk
size, worker count, or program caching — the same
contract :func:`repro.pipeline.compile_batch` makes for compilation, and
the chunks fan out over the same :func:`repro.pipeline.map_parallel`
thread-pool machinery.

Channels whose Kraus operators are proportional to unitaries (the
depolarizing channels of :class:`NoiseModel`) take a fast path: outcome
probabilities are state-independent, so sampling costs one uniform and
the selected operator is applied to just the trajectories that drew it.
"""

from __future__ import annotations

import time

import numpy as np

from repro.circuits.circuit import Circuit
from repro.pipeline.batch import map_parallel
from repro.sim.backends.base import (
    _ITEMSIZE,
    SimulationResult,
    SimulatorBackend,
    reference_statevector,
)
from repro.sim.noise import NoiseModel
from repro.sim.program import (
    ProgramCache,
    SimProgram,
    _UnitaryMixture,
    default_program_cache,
)

_DEFAULT_TRAJECTORIES = 200


def _apply_1q_batch(states: np.ndarray, m: np.ndarray, q: int) -> np.ndarray:
    """Apply a 2x2 operator on qubit ``q`` of a stacked (k, 2, ..., 2).

    Structured matrices take cheaper routes than the generic BLAS
    round-trip: diagonal operators (t/s/rz, and the exact-identity
    Kraus outcome) become one broadcast multiply, anti-diagonal ones
    (x/y) a flip plus multiply.  Path selection depends only on the
    matrix and axis geometry — never on the batch size — so chunking
    and worker count cannot change which kernel (and rounding) a given
    operator gets.
    """
    axis = 1 + q
    last = states.ndim - 1
    if m[0, 1] == 0 and m[1, 0] == 0:
        if m[0, 0] == 1.0 and m[1, 1] == 1.0:
            return states  # exact identity: applying is the identity
        d = np.array([m[0, 0], m[1, 1]])
        shape = (1,) * axis + (2,) + (1,) * (last - axis)
        return states * d.reshape(shape)
    if m[0, 0] == 0 and m[1, 1] == 0 and axis != last:
        d = np.array([m[0, 1], m[1, 0]])
        shape = (1,) * axis + (2,) + (1,) * (last - axis)
        return np.flip(states, axis) * d.reshape(shape)
    out = np.tensordot(m, states, axes=([1], [1 + q]))
    return np.moveaxis(out, 0, 1 + q)


def _apply_matrix_batch(
    states: np.ndarray, m: np.ndarray, qubits: tuple[int, ...]
) -> np.ndarray:
    """Apply a dense 1q/2q operator to every state of the batch."""
    if len(qubits) == 1:
        return _apply_1q_batch(states, m, qubits[0])
    a, b = qubits
    n = states.ndim - 1
    if b == a + 1 and n - b - 1 >= 4:
        # Adjacent pair with a wide tail block: one batched matmul on a
        # reshape view beats tensordot's transpose copies.  The cut-off
        # uses only (a, b, n) so every chunk takes the same kernel.
        pre = 1 << a
        post = 1 << (n - b - 1)
        v = states.reshape(states.shape[0], pre, 4, post)
        return np.matmul(m, v).reshape(states.shape)
    m = m.reshape(2, 2, 2, 2)
    out = np.tensordot(m, states, axes=([2, 3], [1 + a, 1 + b]))
    return np.moveaxis(out, (0, 1), (1 + a, 1 + b))


def _apply_mixture_selected(
    states: np.ndarray,
    mixture: _UnitaryMixture,
    choice: np.ndarray,
    q: int,
) -> np.ndarray:
    """Apply each non-identity outcome to the trajectories that drew it.

    The identity outcome — the overwhelming majority at calibrated
    rates — is skipped entirely; its unitary is exact (see
    :func:`repro.sim.program._as_unitary_mixture`), so skipping equals
    applying, value for value.
    """
    for i, u in enumerate(mixture.unitaries):
        if i == mixture.identity_index:
            continue
        rows = np.nonzero(choice == i)[0]
        if rows.size == 0:
            continue
        states[rows] = _apply_1q_batch(states[rows], u, q)
    return states


def _apply_kraus_general(
    states: np.ndarray,
    kraus: list[np.ndarray],
    q: int,
    uniforms: np.ndarray,
) -> np.ndarray:
    """General channel: norms are state-dependent, so evaluate every
    candidate branch and select per trajectory."""
    k = states.shape[0]
    candidates = [_apply_1q_batch(states, op, q) for op in kraus]
    flat = [c.reshape(k, -1) for c in candidates]
    norms2 = np.stack(
        [np.einsum("kd,kd->k", f, f.conj()).real for f in flat]
    )  # (n_kraus, k)
    totals = norms2.sum(axis=0)
    cum = np.cumsum(norms2 / totals, axis=0)
    cum[-1] = 1.0
    choice = (cum < uniforms[None, :]).sum(axis=0)
    out = np.empty_like(flat[0])
    for i in range(len(kraus)):
        rows = np.nonzero(choice == i)[0]
        if rows.size == 0:
            continue
        out[rows] = flat[i][rows] / np.sqrt(norms2[i, rows])[:, None]
    return out.reshape(states.shape)


class TrajectoryResult(SimulationResult):
    """Stacked trajectory statevectors of shape ``(n_traj, 2^n)``."""

    backend = "statevector"

    def __init__(
        self,
        states: np.ndarray,
        n_qubits: int,
        seed: int,
        wall_time: float,
    ):
        self.states = states
        self.n_qubits = n_qubits
        self.n_trajectories = states.shape[0]
        self.seed = seed
        self.wall_time = wall_time

    def _sample_fidelities(self, reference) -> np.ndarray:
        psi = reference_statevector(reference, self.n_qubits)
        overlaps = self.states @ psi.conj()
        return np.abs(overlaps) ** 2

    def fidelity(self, reference) -> float:
        return float(self._sample_fidelities(reference).mean())

    def fidelity_std_error(self, reference) -> float | None:
        fids = self._sample_fidelities(reference)
        if fids.shape[0] < 2:
            return 0.0
        return float(fids.std(ddof=1) / np.sqrt(fids.shape[0]))

    def statevector(self) -> np.ndarray:
        if self.n_trajectories != 1:
            raise ValueError(
                "stochastic trajectory bundle has no single statevector; "
                "use fidelity() against a reference instead"
            )
        return self.states[0]


class StatevectorTrajectoryBackend(SimulatorBackend):
    """Batched pure-state trajectories with Monte-Carlo Kraus noise."""

    name = "statevector"

    def __init__(
        self,
        trajectories: int = _DEFAULT_TRAJECTORIES,
        seed: int = 0,
        max_qubits: int = 24,
        chunk_size: int = 64,
        max_workers: int | None = None,
        program_cache: ProgramCache | None = None,
    ):
        if trajectories < 1:
            raise ValueError("need at least one trajectory")
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be at least 1, got {chunk_size}")
        self.trajectories = int(trajectories)
        self.seed = int(seed)
        self.max_qubits = max_qubits
        self.chunk_size = int(chunk_size)
        self.max_workers = max_workers
        self.program_cache = program_cache

    def supports(self, n_qubits: int, noisy: bool) -> bool:
        return n_qubits <= self.max_qubits

    def memory_bytes(self, n_qubits: int, noisy: bool = True) -> int:
        if not noisy:
            # One deterministic state plus a same-size gate transient.
            return _ITEMSIZE * 2**n_qubits * 2
        # The preallocated trajectory stack plus an in-flight chunk of
        # working states and its same-size gate transient.
        width = self.trajectories + 2 * min(self.trajectories, self.chunk_size)
        return _ITEMSIZE * 2**n_qubits * width

    # -- execution ---------------------------------------------------------
    def _run_chunk_program(
        self, program: SimProgram, uniforms: np.ndarray
    ) -> np.ndarray:
        """Drive one chunk of trajectories through a compiled program.

        Every operator matrix and channel table is precomputed; the
        chunk's mixture outcomes come from one batched ``searchsorted``
        per distinct channel (:meth:`SimProgram.sample_choices`) and
        identity outcomes are skipped.
        """
        k = uniforms.shape[0]
        n = program.n_qubits
        states = np.zeros((k,) + (2,) * n, dtype=complex)
        states[(slice(None),) + (0,) * n] = 1.0
        choices = program.sample_choices(uniforms)
        for ops, events in program.layers:
            for op in ops:
                states = _apply_matrix_batch(states, op.matrix, op.qubits)
            for ev in events:
                if ev.mixture is not None:
                    states = _apply_mixture_selected(
                        states, ev.mixture, choices[:, ev.column], ev.qubit
                    )
                else:
                    states = _apply_kraus_general(
                        states, ev.kraus, ev.qubit, uniforms[:, ev.column]
                    )
        return states.reshape(k, -1)

    def run(
        self, circuit: Circuit, noise: NoiseModel | None = None
    ) -> TrajectoryResult:
        if circuit.n_qubits > self.max_qubits:
            raise ValueError(
                f"statevector simulation of {circuit.n_qubits} qubits "
                f"refused (limit {self.max_qubits})"
            )
        start = time.monotonic()
        cache = self.program_cache
        if cache is None:
            cache = default_program_cache()
        # Compiled once per (circuit, noise) — and memoized across runs —
        # then shared read-only by every chunk/worker.  Layer-batched
        # application: the DAG front-layer schedule is exact for a dense
        # state, and noise-event columns stay keyed by flat gate
        # position, so results match the sequential stream.
        program = cache.get(circuit, noise, fused=True)
        return TrajectoryResult(
            self._run_program(program), circuit.n_qubits, self.seed,
            time.monotonic() - start,
        )

    def _run_program(self, program: SimProgram) -> np.ndarray:
        """Every trajectory of a compiled program, as ``(k, 2^n)`` rows.

        A noiseless program runs once (every trajectory would be
        identical); otherwise ``self.trajectories`` rows, in chunks.
        """
        n_events = program.n_events
        if n_events == 0:
            return self._run_chunk_program(program, np.empty((1, 0)))
        # One private uniform stream per trajectory, derived from
        # (seed, trajectory index) — chunking cannot change results.
        uniforms = np.stack(
            [
                np.random.default_rng([self.seed, t]).random(n_events)
                for t in range(self.trajectories)
            ]
        )
        # Chunks write straight into one preallocated stack — no
        # concatenate copy doubling peak memory at the end.
        states = np.empty(
            (self.trajectories, 2**program.n_qubits), dtype=complex
        )
        offsets = list(range(0, self.trajectories, self.chunk_size))

        def job(lo: int) -> None:
            rows = uniforms[lo : lo + self.chunk_size]
            states[lo : lo + rows.shape[0]] = self._run_chunk_program(
                program, rows
            )

        map_parallel(job, offsets, self.max_workers)
        return states
