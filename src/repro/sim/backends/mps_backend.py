"""Bond-truncated MPS simulation behind the backend protocol.

Generalizes the trace-value MPS of :mod:`repro.tensornet.mps` to full
circuit states (:class:`~repro.tensornet.circuit_mps.CircuitMPS`):
memory is linear in qubit count and quadratic in the bond-dimension cap,
so 20+ qubit circuits become simulable.  Accuracy degrades gracefully —
the per-run truncated weight is tracked on the result so callers can
tell a genuine infidelity from a truncation artifact.

Noise uses the same Monte-Carlo Kraus unravelling as the statevector
engine, one MPS per trajectory, with the identical per-trajectory
``default_rng([seed, t])`` uniform streams — so a given trajectory count
and seed is comparable across both stochastic backends.  Noisy
trajectories drive the same JIT-compiled
:class:`~repro.sim.program.SimProgram`, in flat gate order and unfused
(either would change the bond-truncation sequence), and fan out over
:func:`repro.pipeline.map_parallel`.
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
    noise_event_layout,
)
from repro.sim.noise import NoiseModel
from repro.sim.program import (
    ProgramCache,
    SimProgram,
    default_program_cache,
)
from repro.tensornet.circuit_mps import CircuitMPS

_DEFAULT_MPS_TRAJECTORIES = 50


class MPSResult(SimulationResult):
    """One MPS per trajectory (a single MPS when noiseless).

    ``sampled`` says whether noise outcomes were drawn: a run with none
    is deterministic.
    """

    backend = "mps"

    def __init__(
        self,
        trajectories: list[CircuitMPS],
        n_qubits: int,
        seed: int,
        wall_time: float,
        sampled: bool = True,
    ):
        self.trajectories = trajectories
        self.n_qubits = n_qubits
        self.n_trajectories = len(trajectories)
        self.seed = seed
        self.wall_time = wall_time
        self.sampled = sampled

    @property
    def truncation_error(self) -> float:
        """Worst accumulated truncated weight across trajectories."""
        return max(t.truncation_error for t in self.trajectories)

    @property
    def mps(self) -> CircuitMPS:
        """The state of a noiseless single-trajectory run."""
        if self.n_trajectories != 1:
            raise ValueError(
                "stochastic MPS bundle has no single state; use "
                "fidelity() against a reference instead"
            )
        return self.trajectories[0]

    def _sample_fidelities(self, reference) -> np.ndarray:
        if isinstance(reference, MPSResult):
            reference = reference.mps
        if isinstance(reference, CircuitMPS):
            return np.array(
                [abs(reference.overlap(t)) ** 2 for t in self.trajectories]
            )
        # Dense references go through each trajectory's statevector —
        # only viable at moderate qubit counts.
        from repro.sim.backends.base import reference_statevector

        psi = reference_statevector(reference, self.n_qubits)
        return np.array(
            [
                abs(np.vdot(psi, t.to_statevector())) ** 2
                for t in self.trajectories
            ]
        )

    def fidelity(self, reference) -> float:
        return float(self._sample_fidelities(reference).mean())

    def fidelity_std_error(self, reference) -> float | None:
        if self.n_trajectories < 2:
            # One sampled trajectory says nothing about its spread.
            return None if self.sampled else 0.0
        fids = self._sample_fidelities(reference)
        return float(fids.std(ddof=1) / np.sqrt(fids.shape[0]))

    def statevector(self) -> np.ndarray:
        return self.mps.to_statevector()


class MPSBackend(SimulatorBackend):
    """Circuit simulation on a bond-truncated matrix product state."""

    name = "mps"

    def __init__(
        self,
        max_bond: int = 64,
        trajectories: int = _DEFAULT_MPS_TRAJECTORIES,
        seed: int = 0,
        svd_cutoff: float = 1e-12,
        max_workers: int | None = None,
        program_cache: ProgramCache | None = None,
    ):
        if trajectories < 1:
            raise ValueError("need at least one trajectory")
        self.max_bond = int(max_bond)
        self.trajectories = int(trajectories)
        self.seed = int(seed)
        self.svd_cutoff = float(svd_cutoff)
        self.max_workers = max_workers
        self.program_cache = program_cache

    def supports(self, n_qubits: int, noisy: bool) -> bool:
        return True  # linear memory: the backend of last resort

    def memory_bytes(self, n_qubits: int, noisy: bool = True) -> int:
        return _ITEMSIZE * n_qubits * 2 * self.max_bond**2

    def make_reference(self, circuit: Circuit) -> CircuitMPS:
        return self._run_noiseless(circuit)

    # -- execution ---------------------------------------------------------
    def _run_noiseless(self, circuit: Circuit) -> CircuitMPS:
        """The whole-circuit path, pre-routing long-range gates.

        Noisy trajectories cannot take it: each noise event must land
        on the qubit's un-permuted site.
        """
        return CircuitMPS(
            circuit.n_qubits, max_bond=self.max_bond,
            svd_cutoff=self.svd_cutoff,
        ).run(circuit)

    def _run_one(
        self, program: SimProgram, uniforms: np.ndarray
    ) -> CircuitMPS:
        """One noisy trajectory driven by a compiled program.

        Matrices, channel tables, and uniform columns are all
        precomputed; the program is unfused and in flat gate order, so
        operators apply one source gate at a time.
        """
        mps = CircuitMPS(
            program.n_qubits, max_bond=self.max_bond,
            svd_cutoff=self.svd_cutoff,
        )
        for ops, events in program.layers:
            for op in ops:
                if len(op.qubits) == 1:
                    mps.apply_1q(op.matrix, op.qubits[0])
                else:
                    mps.apply_2q(op.matrix, *op.qubits)
            for ev in events:
                self._kraus_event(
                    mps, ev.kraus, ev.mixture, ev.qubit,
                    uniforms[ev.column],
                )
        return mps

    @staticmethod
    def _kraus_event(
        mps: CircuitMPS,
        kraus: list[np.ndarray],
        mixture,
        q: int,
        u: float,
    ) -> None:
        if mixture is not None:
            i = int(np.searchsorted(mixture.cum, u, side="right"))
            if i == mixture.identity_index:
                return  # exact-identity outcome: applying is a no-op
            mps.apply_1q(mixture.unitaries[i], q)
            return
        # General channel: branch probabilities need full norms.
        branches = []
        for op in kraus:
            cand = mps.copy()
            cand.apply_1q(op, q)
            branches.append((cand, cand.norm() ** 2))
        total = sum(p for _, p in branches)
        acc = 0.0
        for cand, p in branches:
            acc += p / total
            if u < acc or cand is branches[-1][0]:
                cand.apply_1q(
                    np.eye(2, dtype=complex) / np.sqrt(max(p, 1e-300)), q
                )
                mps.tensors = cand.tensors
                mps.truncation_error = cand.truncation_error
                mps.center = cand.center
                return

    def run(
        self, circuit: Circuit, noise: NoiseModel | None = None
    ) -> MPSResult:
        start = time.monotonic()
        _, n_events = noise_event_layout(circuit, noise)
        if n_events == 0:
            states = [self._run_noiseless(circuit)]
        else:
            cache = self.program_cache
            if cache is None:
                cache = default_program_cache()
            # Flat order and no fusion: layering or collapsing gates
            # would change the bond-truncation sequence.
            program = cache.get(circuit, noise, fused=False)

            def job(t: int) -> CircuitMPS:
                uniforms = np.random.default_rng(
                    [self.seed, t]
                ).random(n_events)
                return self._run_one(program, uniforms)

            states = map_parallel(
                job, list(range(self.trajectories)), self.max_workers
            )
        return MPSResult(
            states, circuit.n_qubits, self.seed, time.monotonic() - start,
            sampled=n_events > 0,
        )
