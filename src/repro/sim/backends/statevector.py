"""Vectorized statevector simulation with Monte-Carlo Kraus trajectories.

Noise is unravelled into quantum trajectories: each trajectory is a pure
state, every Kraus channel becomes a weighted random choice of one Kraus
operator, and the noisy density matrix is the empirical average over
trajectories.  Trajectories are batched as one stacked
``(rows, 2, ..., 2)`` array driven through the same BLAS calls, which
both breaks the 12-qubit density-matrix wall and beats the density
matrix on wall-clock well below it.

Trajectories share a state row until their noise outcomes differ: a
run starts from one row for all its trajectories, and a trajectory
moves to a row of its own only when it draws a non-identity outcome
that the rest of its row does not.  At calibrated error rates most
trajectories draw no error at all, so a 200-trajectory run evolves the
all-identity trunk once and a handful of rows besides.  Rows are kept
in blocks of at most ``chunk_size``: a block that outgrows it hands half
its rows, with their trajectories, to a new block, and blocks fan out
over worker threads once more than one is live.  Memory is one ``2^n``
row per distinct outcome history, ``O(n_traj * 2^n)`` in the worst case
where every trajectory has diverged, instead of ``4^n``; results keep
the distinct rows and a trajectory → row map, never a per-trajectory
stack.

Execution is two-phase: the circuit and noise model are JIT-compiled
once per run into a flat :class:`~repro.sim.program.SimProgram` under
the engine's fixed ``fused=True`` recipe — precomputed dense matrices
(including 1q/2q fusion products) in front-layer order, resolved
channel tables, and per-event uniform columns — memoized in a shared
:class:`~repro.sim.program.ProgramCache` and driven read-only by every
block and worker.  Mixture outcome choices come from one batched
``searchsorted`` per distinct channel and chunk of trajectories, and
the identity outcome (the overwhelming majority at calibrated rates)
leaves a trajectory on its row.

Determinism
-----------
Trajectory ``t`` consumes only the uniform stream of
``np.random.default_rng([seed, t])``, pre-drawn as one row of an
``(n_traj, n_events)`` matrix (the number of noise events per circuit is
known upfront).  Operator kernels are chosen by matrix and axis
geometry alone, never by how many rows are live, so a shared row holds
exactly the state each of its trajectories would have alone.  A block's
steps and splits depend on its rows alone, never on scheduling.
Trajectory states are therefore bit-identical regardless of chunk size,
worker count, or program caching — the same contract
:func:`repro.pipeline.compile_batch` makes for compilation, and the
blocks fan out over the same :func:`repro.pipeline.map_parallel`
thread-pool machinery.

Channels whose Kraus operators are proportional to unitaries (the
depolarizing channels of :class:`NoiseModel`) take a fast path: outcome
probabilities are state-independent, so sampling costs one uniform and
the selected operator is applied to just the rows whose trajectories
drew it.  General channels compute each row's branch norms once, and
each trajectory draws against its row's table with its own uniform.
"""

from __future__ import annotations

import os
import threading
import time
from collections import defaultdict
from typing import Callable, Iterable

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
    """A block of a run's trajectories, as one state row per outcome
    history.

    ``row[t]`` is trajectory ``t``'s row in the block (-1 when ``t``
    lives in another block) and ``counts[r]`` the number of
    trajectories on row ``r``.  A run starts with one block holding
    every trajectory on the single row |0...0>; operators act on the
    rows, so trajectories that have drawn the same noise outcomes so far
    share one state and its work.  No row is ever emptied: when every
    trajectory of a row leaves it, the row's last (row, outcome) pair
    keeps it, so a block's rows are exactly its distinct outcome
    histories and nothing is compacted.  When a block outgrows its row
    limit it hands the upper half of its rows, with their trajectories,
    to a new block (:meth:`halve`); the two never share a row again, as
    their histories already differ.
    """

    def __init__(self, states: np.ndarray, row: np.ndarray, counts: np.ndarray):
        self.states = states
        self.row = row
        self.counts = counts
        #: The next program step to run.
        self.pos = 0
        #: Sorts the blocks into row order: halves extend their
        #: block's key with 0 (lower) and 1 (upper).
        self.key: tuple[int, ...] = ()

    @classmethod
    def start(cls, k: int, n_qubits: int) -> _HistoryRows:
        states = np.zeros((1,) + (2,) * n_qubits, dtype=complex)
        states[(0,) * (n_qubits + 1)] = 1.0
        return cls(
            states, np.zeros(k, dtype=np.intp), np.array([k], dtype=np.intp)
        )

    def run(self, steps: list[tuple], limit: int) -> _HistoryRows | None:
        """Run ``steps`` from :attr:`pos` to the end, or until the block
        holds more than ``limit`` rows: then halve it and return the
        upper half, which resumes where this block stopped."""
        while self.states.shape[0] <= limit:
            if self.pos == len(steps):
                return None
            kind, data, qubits = steps[self.pos]
            self.pos += 1
            if kind == _OP:
                self.states = _apply_matrix_batch(self.states, data, qubits)
            elif kind == _MIXTURE:
                self.mixture_event(*data, qubits)
            else:
                self.kraus_event(*data, qubits)
        return self.halve()

    def mixture_event(
        self,
        movers: np.ndarray,
        outcomes: np.ndarray,
        unitaries: list[np.ndarray],
        q: int,
    ) -> None:
        """Apply each mover's drawn unitary; identity drawers stay put.

        ``movers`` may include trajectories of other blocks, which are
        skipped.
        """
        r = self.row[movers]
        mine = r >= 0
        if not mine.all():
            movers, outcomes = movers[mine], outcomes[mine]
            if not movers.size:
                return
        self.split(
            movers, outcomes,
            lambda i, src: _apply_1q_batch(self.states[src], unitaries[i], q),
        )

    def kraus_event(
        self, uniforms: np.ndarray, kraus: list[np.ndarray], q: int
    ) -> None:
        """A general channel: each row's branch norms are computed once,
        and each trajectory draws against its row's table with its own
        uniform."""
        members = np.flatnonzero(self.row >= 0)
        flat, norms2, cum = _kraus_branches(self.states, kraus, q)
        drawn = (cum[:, self.row[members]] < uniforms[members]).sum(axis=0)
        shape = self.states.shape[1:]
        self.split(
            members, drawn,
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
        destination.  A row's last pair keeps the row, updated in place,
        when no trajectory stays behind on it; every other pair gets a
        new row.  New rows are computed first, since a kept row may be
        the source of other pairs, and go on the end in one copy of the
        block.  The bookkeeping is O(movers).
        """
        r = self.row[movers]
        fresh = []
        if (self.counts[r] == 1).all():
            # Each mover owns its row: its pair updates the row in place.
            src, out = r, outcomes
        else:
            src, out, keep = self._pairs(r, movers, outcomes)
            new_src, new_out = src[~keep], out[~keep]
            for i in np.unique(new_out).tolist():
                fresh.append(branch(i, new_src[new_out == i]))
            src, out = src[keep], out[keep]
        groups = set(out.tolist())
        for i in groups:
            sel = slice(None) if len(groups) == 1 else out == i
            self.states[src[sel]] = branch(i, src[sel])
        if fresh:
            self.states = np.concatenate([self.states, *fresh])

    def _pairs(self, r, movers, outcomes):
        """Group movers on shared rows into (row, outcome) pairs, sorted
        by (outcome, row), and number the rows of the pairs that do not
        keep theirs from the end of the block."""
        n_rows = self.states.shape[0]
        pairs, inverse, sizes = np.unique(
            outcomes * n_rows + r, return_inverse=True, return_counts=True
        )
        out, src = np.divmod(pairs, n_rows)
        gone = np.zeros(n_rows, dtype=np.intp)
        np.add.at(gone, src, sizes)
        last = np.zeros(src.size, dtype=bool)
        last[src.size - 1 - np.unique(src[::-1], return_index=True)[1]] = True
        keep = last & (gone[src] == self.counts[src])
        fresh = ~keep
        dest = src.copy()
        dest[fresh] = n_rows + np.arange(np.count_nonzero(fresh))
        np.subtract.at(self.counts, src[fresh], sizes[fresh])
        self.counts = np.concatenate([self.counts, sizes[fresh]])
        self.row[movers] = dest[inverse]
        return src, out, keep

    def halve(self) -> _HistoryRows:
        """Hand the upper half of the rows, with their trajectories, to
        a new block that resumes at this block's step."""
        h = self.states.shape[0] // 2
        # The upper half is copied out, so the full array lives only
        # until this block's next step replaces its lower-half view.
        upper = _HistoryRows(
            self.states[h:].copy(),
            np.where(self.row >= h, self.row - h, -1),
            self.counts[h:].copy(),
        )
        upper.pos, upper.key = self.pos, self.key + (1,)
        self.states, self.counts = self.states[:h], self.counts[:h]
        self.row[self.row >= h] = -1
        self.key += (0,)
        return upper


#: Program step kinds, see :func:`_program_steps`.
_OP, _MIXTURE, _KRAUS = 0, 1, 2


def _program_steps(
    program: SimProgram, chunks: Iterable[tuple[int, np.ndarray]]
) -> list[tuple]:
    """The program as ``(kind, data, qubits)`` steps, in order.

    ``chunks`` yields ``(t0, uniforms)``: the uniforms of trajectories
    ``t0, t0 + 1, ...``, a chunk of trajectories at a time, so only one
    chunk's outcome table is ever in memory.  An operator step carries
    its matrix.  A mixture event carries ``(movers, outcomes,
    unitaries)``: the trajectories that left the identity outcome and
    what they drew; an event nobody erred at is dropped.  The identity
    unitary is exact (see :func:`repro.sim.program._as_unitary_mixture`),
    so staying on the row equals applying it, value for value.  A
    general event carries ``(uniforms, kraus)``, its column of uniforms.
    """
    identity = np.full(program.n_events, -1)
    for _, events in program.layers:
        for ev in events:
            if ev.mixture is not None:
                identity[ev.column] = ev.mixture.identity_index
    general = np.flatnonzero(identity < 0)
    moves, columns = defaultdict(list), []
    for t0, uniforms in chunks:
        columns.append(uniforms[:, general])
        choices = program.sample_choices(uniforms)
        if choices is None:
            continue
        # Who left the identity outcome, per event column, in one
        # vectorized pass: column-major nonzero lists each column's
        # movers together.
        moved = choices != identity
        moved[:, general] = False
        cols, movers = np.nonzero(moved.T)
        outcomes = choices[movers, cols]
        starts = np.flatnonzero(np.diff(cols, prepend=-1)).tolist()
        for lo, hi in zip(starts, starts[1:] + [cols.size]):
            moves[int(cols[lo])].append(
                (movers[lo:hi] + t0, outcomes[lo:hi])
            )
    columns = dict(zip(general.tolist(), np.concatenate(columns).T))
    steps = []
    for ops, events in program.layers:
        steps += [(_OP, op.matrix, op.qubits) for op in ops]
        for ev in events:
            if ev.mixture is None:
                steps.append((_KRAUS, (columns[ev.column], ev.kraus), ev.qubit))
            elif ev.column in moves:
                movers, outcomes = map(np.concatenate, zip(*moves[ev.column]))
                data = (movers, outcomes, ev.mixture.unitaries)
                steps.append((_MIXTURE, data, ev.qubit))
    return steps


def _run_blocks(
    first: _HistoryRows,
    steps: list[tuple],
    limit: int,
    max_workers: int | None,
) -> list[_HistoryRows]:
    """Run ``first`` and every block split off it through ``steps``.

    The run stays serial while one block is live — at calibrated rates,
    the whole run.  Once there are more, worker loops on
    :func:`~repro.pipeline.map_parallel` take blocks from a shared
    list; a worker whose block splits pushes the upper half for any
    idle worker and goes on with the lower.  Results cannot depend on
    scheduling: a block's steps and splits depend on its rows alone.
    Returns the finished blocks in row order.
    """
    todo, done = [first], []
    while len(todo) == 1:
        upper = todo[0].run(steps, limit)
        if upper is None:
            done.append(todo.pop())
        else:
            todo.append(upper)
    if todo:
        cond = threading.Condition()
        live = len(todo)  # blocks queued or running

        def loop(_):
            nonlocal live
            while True:
                with cond:
                    while not todo and live:
                        cond.wait()
                    if not todo:
                        return
                    block = todo.pop(0)
                try:
                    while (upper := block.run(steps, limit)) is not None:
                        with cond:
                            todo.append(upper)
                            live += 1
                            cond.notify()
                finally:
                    with cond:
                        done.append(block)
                        live -= 1
                        if not live:
                            cond.notify_all()

        if max_workers is None:
            max_workers = os.cpu_count() or 1
        map_parallel(loop, range(max(max_workers, 1)), max_workers)
    return sorted(done, key=lambda b: b.key)


class TrajectoryResult(SimulationResult):
    """A run's trajectories as distinct state rows plus a row map.

    ``blocks`` are ``(n_b, 2^n)`` arrays holding one row per distinct
    outcome history between them, and ``row[t]`` is trajectory ``t``'s
    row in their concatenation.  ``sampled`` says whether noise
    outcomes were drawn: a run with none is deterministic.
    """

    backend = "statevector"

    def __init__(
        self,
        blocks: list[np.ndarray],
        row: np.ndarray,
        n_qubits: int,
        seed: int,
        wall_time: float,
        sampled: bool = True,
    ):
        self.blocks = blocks
        self.row = row
        self.n_qubits = n_qubits
        self.n_trajectories = row.shape[0]
        self.seed = seed
        self.wall_time = wall_time
        self.sampled = sampled

    @property
    def states(self) -> np.ndarray:
        """Every trajectory's state as a ``(n_traj, 2^n)`` stack, built
        on demand."""
        return np.concatenate(self.blocks)[self.row]

    def _sample_fidelities(self, reference) -> np.ndarray:
        psi = reference_statevector(reference, self.n_qubits).conj()
        overlaps = np.concatenate([b @ psi for b in self.blocks])
        return (np.abs(overlaps) ** 2)[self.row]

    def fidelity(self, reference) -> float:
        return float(self._sample_fidelities(reference).mean())

    def fidelity_std_error(self, reference) -> float | None:
        if self.n_trajectories < 2:
            # One sampled trajectory says nothing about its spread.
            return None if self.sampled else 0.0
        fids = self._sample_fidelities(reference)
        return float(fids.std(ddof=1) / np.sqrt(fids.shape[0]))

    def statevector(self) -> np.ndarray:
        if self.n_trajectories != 1:
            raise ValueError(
                "stochastic trajectory bundle has no single statevector; "
                "use fidelity() against a reference instead"
            )
        return self.blocks[0][self.row[0]]


class StatevectorTrajectoryBackend(SimulatorBackend):
    """Batched pure-state trajectories with Monte-Carlo Kraus noise.

    All trajectories of a run share one set of history rows, so the
    all-identity trunk and every shared history are evolved once per
    run.  ``chunk_size`` is the most rows one operator is applied to at
    once: the rows are split into blocks of at most that many, which
    fan out over ``max_workers`` threads once more than one is live.
    """

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
        # One row per trajectory at the worst case, where every
        # trajectory has diverged, plus an operator's output and
        # transposed input on the rows of each block in flight: one
        # block of at most ``chunk_size`` rows per worker, and never
        # more rows than trajectories between them.
        workers = max(self.max_workers or os.cpu_count() or 1, 1)
        in_flight = min(self.trajectories, workers * self.chunk_size)
        return _ITEMSIZE * 2**n_qubits * (self.trajectories + 2 * in_flight)

    # -- execution ---------------------------------------------------------
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
        # then driven read-only.  Layer-batched application: the
        # front-layer schedule is exact for a dense state, and
        # noise-event columns stay keyed by flat gate position, so
        # results match the sequential stream.
        program = cache.get(circuit, noise, fused=True)
        blocks, row = self._run_program(program)
        return TrajectoryResult(
            blocks, row, circuit.n_qubits, self.seed,
            time.monotonic() - start, sampled=program.n_events > 0,
        )

    def _uniforms(
        self, program: SimProgram, lo: int = 0, hi: int | None = None
    ) -> np.ndarray:
        """The uniforms of trajectories ``lo..hi`` (default: all), one
        row of ``n_events`` each: trajectory ``t`` draws from
        ``default_rng([seed, t])`` alone.  A noiseless program runs one
        trajectory, since every one would be identical."""
        if program.n_events == 0:
            return np.empty((1, 0))
        hi = self.trajectories if hi is None else min(hi, self.trajectories)
        return np.stack(
            [
                np.random.default_rng([self.seed, t]).random(program.n_events)
                for t in range(lo, hi)
            ]
        )

    def _run_program(
        self, program: SimProgram
    ) -> tuple[list[np.ndarray], np.ndarray]:
        """Every trajectory of a compiled program, as blocks of distinct
        rows ``(n_b, 2^n)`` and the trajectory → row map into their
        concatenation.

        Trajectories share a state row until their noise outcomes
        differ (:class:`_HistoryRows`), so every operator acts on one
        row per distinct outcome history, once per run.  Mixture
        outcomes come from one batched ``searchsorted`` per distinct
        channel (:meth:`SimProgram.sample_choices`) and chunk of
        trajectories; trajectories that drew the identity keep their
        row.
        """
        k = self.trajectories if program.n_events else 1
        size = self.chunk_size
        steps = _program_steps(
            program,
            ((lo, self._uniforms(program, lo, lo + size))
             for lo in range(0, k, size)),
        )
        blocks = _run_blocks(
            _HistoryRows.start(k, program.n_qubits), steps,
            size, self.max_workers,
        )
        row = np.empty(k, dtype=np.intp)
        offset = 0
        for j, b in enumerate(blocks):
            mine = b.row >= 0
            row[mine] = b.row[mine] + offset
            offset += b.states.shape[0]
            # A flat copy only when the rows are a strided view; each
            # block is dropped as soon as it is flat.
            blocks[j] = b.states.reshape(b.states.shape[0], -1)
        return blocks, row
