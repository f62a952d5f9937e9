"""Vectorized statevector simulation with Monte-Carlo Kraus trajectories.

Noise is unravelled into quantum trajectories: each trajectory is a pure
state, every Kraus channel becomes a weighted random choice of one Kraus
operator, and the noisy density matrix is the empirical average over
trajectories.  Trajectories are batched as one stacked
``(rows, 2, ..., 2)`` array driven through the same BLAS calls, which
both breaks the 12-qubit density-matrix wall and beats the density
matrix on wall-clock well below it.

Trajectories share a state row until their noise outcomes differ: a
chunk starts from one row, and a trajectory moves to a row of its own
only when it draws a non-identity outcome that the rest of its row does
not.  At calibrated error rates most trajectories draw no error at all,
so a chunk of 64 trajectories evolves a handful of rows.  Memory is one
``2^n`` row per distinct outcome history, ``O(n_traj * 2^n)`` in the
worst case where every trajectory has diverged, instead of ``4^n``.

Execution is two-phase: the circuit and noise model are JIT-compiled
once per run into a flat :class:`~repro.sim.program.SimProgram` under
the engine's fixed ``fused=True`` recipe — precomputed dense matrices
(including 1q/2q fusion products) in DAG front-layer order, resolved
channel tables, and per-event uniform columns — memoized in a shared
:class:`~repro.sim.program.ProgramCache` and driven read-only by every
chunk and worker.  Mixture outcome choices for a whole chunk come from
one batched ``searchsorted`` per distinct channel, and the identity
outcome (the overwhelming majority at calibrated rates) leaves a
trajectory on its row.

Determinism
-----------
Trajectory ``t`` consumes only the uniform stream of
``np.random.default_rng([seed, t])``, pre-drawn as one row of a
``(n_traj, n_events)`` matrix (the number of noise events per circuit is
known upfront).  Operator kernels are chosen by matrix and axis
geometry alone, never by how many rows are live, so a shared row holds
exactly the state each of its trajectories would have alone.  Results
are therefore bit-identical regardless of chunk size, worker count, or
program caching — the same contract :func:`repro.pipeline.compile_batch`
makes for compilation, and the chunks fan out over the same
:func:`repro.pipeline.map_parallel` thread-pool machinery.

Channels whose Kraus operators are proportional to unitaries (the
depolarizing channels of :class:`NoiseModel`) take a fast path: outcome
probabilities are state-independent, so sampling costs one uniform and
the selected operator is applied to just the rows whose trajectories
drew it.  General channels compute each row's branch norms once, and
each trajectory draws against its row's table with its own uniform.
"""

from __future__ import annotations

import time
from typing import Callable

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


def _kraus_branches(
    states: np.ndarray, kraus: list[np.ndarray], q: int
) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """Every branch of a general channel on every state of the batch.

    Returns the unnormalized branches (flattened), their squared norms
    ``(n_kraus, k)`` and the cumulative outcome table built from them:
    a state draws branch ``i`` when ``cum[i-1] <= u < cum[i]``.
    """
    k = states.shape[0]
    candidates = [_apply_1q_batch(states, op, q) for op in kraus]
    flat = [c.reshape(k, -1) for c in candidates]
    norms2 = np.stack(
        [np.einsum("kd,kd->k", f, f.conj()).real for f in flat]
    )  # (n_kraus, k)
    totals = norms2.sum(axis=0)
    cum = np.cumsum(norms2 / totals, axis=0)
    cum[-1] = 1.0
    return flat, norms2, cum


def _apply_kraus_general(
    states: np.ndarray,
    kraus: list[np.ndarray],
    q: int,
    uniforms: np.ndarray,
) -> np.ndarray:
    """General channel with one state per trajectory: norms are
    state-dependent, so evaluate every candidate branch and select per
    trajectory (state ``t`` draws with ``uniforms[t]``).

    The engine's general path before trajectories shared rows; the
    ``/ungrouped`` bench baseline still runs it.
    """
    flat, norms2, cum = _kraus_branches(states, kraus, q)
    choice = (cum < uniforms[None, :]).sum(axis=0)
    out = np.empty_like(flat[0])
    for i in range(len(kraus)):
        rows = np.nonzero(choice == i)[0]
        if rows.size == 0:
            continue
        out[rows] = flat[i][rows] / np.sqrt(norms2[i, rows])[:, None]
    return out.reshape(states.shape)


class _HistoryRows:
    """One chunk's trajectories as one state row per outcome history.

    ``row[t]`` is trajectory ``t``'s row and ``counts[r]`` the number of
    trajectories on row ``r``.  Every trajectory starts on the single
    row |0...0>; operators act on the rows, so trajectories that have
    drawn the same noise outcomes so far share one state and its work.
    """

    def __init__(self, k: int, n_qubits: int):
        self.states = np.zeros((1,) + (2,) * n_qubits, dtype=complex)
        self.states[(0,) * (n_qubits + 1)] = 1.0
        self.row = np.zeros(k, dtype=np.intp)
        self.counts = np.array([k], dtype=np.intp)

    def mixture_event(
        self,
        movers: np.ndarray,
        outcomes: np.ndarray,
        unitaries: list[np.ndarray],
        q: int,
    ) -> None:
        """Apply each mover's drawn unitary; identity drawers stay put."""
        self.split(
            movers, outcomes,
            lambda i, src: _apply_1q_batch(self.states[src], unitaries[i], q),
        )

    def kraus_event(
        self, kraus: list[np.ndarray], q: int, uniforms: np.ndarray
    ) -> None:
        """A general channel: each row's branch norms are computed once,
        and each trajectory draws against its row's table with its own
        uniform."""
        flat, norms2, cum = _kraus_branches(self.states, kraus, q)
        drawn = (cum[:, self.row] < uniforms).sum(axis=0)
        shape = self.states.shape[1:]
        self.split(
            np.arange(self.row.size), drawn,
            lambda i, src: (
                flat[i][src] / np.sqrt(norms2[i, src])[:, None]
            ).reshape((-1,) + shape),
        )

    def split(
        self,
        movers: np.ndarray,
        outcomes: np.ndarray,
        branch: Callable[[int, np.ndarray], np.ndarray],
    ) -> None:
        """Move trajectories ``movers`` onto the rows of their outcomes.

        ``branch(i, src)`` returns outcome ``i``'s post-event states of
        rows ``src``.  Movers sharing a (row, outcome) pair share one
        destination: the row itself, updated in place, when the pair
        holds every trajectory of the row; otherwise a new row.  Rows
        left with no trajectory are compacted away.  The bookkeeping is
        O(movers) unless rows are compacted.
        """
        r = self.row[movers]
        if (self.counts[r] == 1).all():
            # Each mover owns its row: its pair updates the row in place.
            src, out, dest = r, outcomes, r
            fresh = None
        else:
            src, out, dest, fresh = self._fork(r, movers, outcomes)
        # A pair writes either its own fully covered row, which no other
        # pair reads, or a new row, so the pairs can go one by one.
        groups = set(out.tolist())
        for i in groups:
            sel = slice(None) if len(groups) == 1 else out == i
            self.states[dest[sel]] = branch(i, src[sel])
        if fresh is not None and not self.counts[src[fresh]].all():
            live = self.counts > 0
            self.row = (np.cumsum(live) - 1)[self.row]
            self.states, self.counts = self.states[live], self.counts[live]

    def _fork(self, r, movers, outcomes):
        """Pairs of movers on shared rows: each pair that leaves part of
        its row behind gets a new (still empty) row at the end."""
        n_rows = self.states.shape[0]
        pairs, inverse, sizes = np.unique(
            outcomes * n_rows + r, return_inverse=True, return_counts=True
        )
        out, src = np.divmod(pairs, n_rows)
        fresh = sizes < self.counts[src]
        dest = src.copy()
        n_fresh = int(np.count_nonzero(fresh))
        if n_fresh:
            dest[fresh] = n_rows + np.arange(n_fresh)
            blank = np.empty((n_fresh,) + self.states.shape[1:], complex)
            self.states = np.concatenate([self.states, blank])
            np.subtract.at(self.counts, src[fresh], sizes[fresh])
            self.counts = np.concatenate([self.counts, sizes[fresh]])
        self.row[movers] = dest[inverse]
        return src, out, dest, fresh

    def expand(self) -> np.ndarray:
        """Every trajectory's state as a ``(k, 2^n)`` stack."""
        return self.states.reshape(self.states.shape[0], -1)[self.row]


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
        # working states and its same-size gate transient, at the worst
        # case of one row per trajectory.
        width = self.trajectories + 2 * min(self.trajectories, self.chunk_size)
        return _ITEMSIZE * 2**n_qubits * width

    # -- execution ---------------------------------------------------------
    def _run_chunk_program(
        self, program: SimProgram, uniforms: np.ndarray
    ) -> np.ndarray:
        """Drive one chunk of trajectories through a compiled program.

        Trajectories share a state row until their noise outcomes
        differ (:class:`_HistoryRows`), so every operator acts on one
        row per distinct outcome history.  Mixture outcomes come from
        one batched ``searchsorted`` per distinct channel
        (:meth:`SimProgram.sample_choices`); trajectories that drew the
        identity keep their row.
        """
        rows = _HistoryRows(uniforms.shape[0], program.n_qubits)
        choices = program.sample_choices(uniforms)
        if choices is not None:
            # Which trajectories leave the identity outcome, per event
            # column, in one vectorized pass over the chunk.  The
            # identity unitary is exact (see
            # :func:`repro.sim.program._as_unitary_mixture`), so staying
            # on the row equals applying it, value for value.
            identity = np.full(program.n_events, -1)
            for _, events in program.layers:
                for ev in events:
                    if ev.mixture is not None:
                        identity[ev.column] = ev.mixture.identity_index
            moved = choices != identity
            any_moved = moved.any(axis=0).tolist()
        for ops, events in program.layers:
            for op in ops:
                rows.states = _apply_matrix_batch(
                    rows.states, op.matrix, op.qubits
                )
            for ev in events:
                if ev.mixture is None:
                    rows.kraus_event(ev.kraus, ev.qubit, uniforms[:, ev.column])
                elif any_moved[ev.column]:
                    movers = np.flatnonzero(moved[:, ev.column])
                    rows.mixture_event(
                        movers, choices[movers, ev.column],
                        ev.mixture.unitaries, ev.qubit,
                    )
        return rows.expand()

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
