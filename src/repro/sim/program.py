"""JIT-compiled simulation programs: compile once, run every chunk.

Rather than re-interpret the gate stream on every chunk of every run —
``gate.matrix()`` per gate per chunk, a channel table resolved per
noise event, one ``searchsorted`` per event column — every engine
drives a :class:`SimProgram`: :func:`compile_program` lowers a
``(circuit, noise, schedule-config)`` triple into flat form once:

* every operator is a precomputed dense matrix (including the 1q/2q
  fusion products of :func:`repro.sim.backends.base.fuse_schedule`),
* every noise event carries its resolved Kraus/mixture table and its
  column into the pre-drawn ``(n_traj, n_events)`` uniform matrix,
* mixture events are grouped by channel so a whole run's outcome
  choices come from one batched ``searchsorted`` per distinct rate —
  element-for-element the per-event sampling — and the
  identity outcome (the overwhelming majority at calibrated rates) is
  marked so engines can skip it outright.

Programs are immutable after compilation and shared read-only across
chunks and worker threads.  :class:`ProgramCache` memoizes them under a
content key — gate stream plus the *resolved* noise behavior (noisy
qubits and rate per gate), not model object identity — so repeated
evaluation of the same circuit (rq3/rq4/rq7 sweeps, ``compile_batch``
objective grids, fidelity sampling) skips recompilation entirely.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable

import numpy as np

from repro.circuits.circuit import Circuit
from repro.sim.backends.base import (
    fuse_schedule,
    gate_schedule,
    is_noisy,
    noise_event_layout,
)
from repro.sim.noise import NoiseModel, depolarizing_kraus

_EYE2 = np.eye(2, dtype=complex)


class _UnitaryMixture:
    """A Kraus channel of scaled unitaries: sample index, apply unitary.

    ``identity_index`` marks the outcome whose unitary is *exactly* the
    identity (−1 when there is none): applying it is a no-op, so
    engines skip those trajectories — the dominant outcome at
    calibrated error rates.
    """

    __slots__ = ("cum", "unitaries", "identity_index")

    def __init__(self, probs: np.ndarray, unitaries: list[np.ndarray]):
        self.cum = np.cumsum(probs)
        self.cum[-1] = 1.0  # guard rounding at the top end
        self.unitaries = unitaries
        self.identity_index = next(
            (
                i for i, u in enumerate(unitaries)
                if u.shape == (2, 2) and np.array_equal(u, _EYE2)
            ),
            -1,
        )


def _as_unitary_mixture(kraus: list[np.ndarray]) -> _UnitaryMixture | None:
    """Detect K_i^dag K_i = c_i I and precompute the sampling table."""
    probs, unitaries = [], []
    for k in kraus:
        kdk = k.conj().T @ k
        c = float(np.real(kdk[0, 0]))
        if c <= 0 or not np.allclose(kdk, c * np.eye(k.shape[0]), atol=1e-12):
            return None
        u = k / np.sqrt(c)
        if u.shape == (2, 2) and np.allclose(u, _EYE2, atol=1e-12):
            # Snap the near-identity branch (K0 of a depolarizing
            # channel) to the exact identity so applying and skipping
            # it are the same state, bit for bit.
            u = _EYE2
        probs.append(c)
        unitaries.append(u)
    probs = np.asarray(probs)
    if not np.isclose(probs.sum(), 1.0, atol=1e-9):
        return None  # not trace preserving; use the general path
    return _UnitaryMixture(probs, unitaries)


class DepolarizingChannels:
    """Per-rate cache of (kraus, mixture) pairs for heterogeneous noise.

    Uniform models hit one entry; target-derived models
    (:meth:`NoiseModel.from_target`) have one entry per distinct
    calibrated rate.  Shared by all three engines.  A
    custom ``factory`` (:attr:`NoiseModel.kraus`) swaps the default
    depolarizing construction for an arbitrary channel family.
    """

    def __init__(
        self,
        factory: Callable[[float], list[np.ndarray]] | None = None,
    ):
        self._by_rate: dict[float, tuple] = {}
        self._factory = factory if factory is not None else depolarizing_kraus

    def get(self, rate: float) -> tuple:
        entry = self._by_rate.get(rate)
        if entry is None:
            kraus = self._factory(rate)
            entry = (kraus, _as_unitary_mixture(kraus))
            self._by_rate[rate] = entry
        return entry


def channels_for(noise: NoiseModel | None) -> DepolarizingChannels:
    """A channel table honoring the model's optional Kraus factory."""
    return DepolarizingChannels(getattr(noise, "kraus", None))


class ProgramOp:
    """One precompiled operator: dense matrix on a qubit tuple."""

    __slots__ = ("qubits", "matrix")

    def __init__(self, qubits: tuple[int, ...], matrix: np.ndarray):
        self.qubits = qubits
        self.matrix = matrix


class NoiseEvent:
    """One precompiled Monte-Carlo Kraus event.

    ``column`` indexes the event's uniform in the pre-drawn matrix;
    ``mixture`` is the fast unitary-mixture table (None for general
    channels, which stay state-dependent).
    """

    __slots__ = ("qubit", "column", "kraus", "mixture")

    def __init__(self, qubit, column, kraus, mixture):
        self.qubit = qubit
        self.column = column
        self.kraus = kraus
        self.mixture = mixture


def program_key(
    circuit: Circuit,
    noise: NoiseModel | None,
    *,
    layered: bool,
    fuse: bool,
    fuse2q: bool,
):
    """Content cache key: gate stream + resolved noise behavior + config.

    The noise model enters through what the engines actually consume —
    per-gate noisy qubits and rates (plus the channel factory's
    identity) — so two model objects that behave identically on this
    circuit share one compiled program, and a model tweak can never be
    masked by object reuse.
    """
    gates = tuple((g.name, g.qubits, g.params) for g in circuit.gates)
    noise_sig = None
    if is_noisy(noise):
        events = tuple(
            (pos, qubits, noise.rate_for(g))
            for pos, g in enumerate(circuit.gates)
            if (qubits := noise.noisy_qubits(g))
        )
        noise_sig = (events, getattr(noise, "kraus", None))
    return (circuit.n_qubits, gates, noise_sig, layered, fuse, fuse2q)


class SimProgram:
    """A compiled, immutable, engine-agnostic simulation program."""

    __slots__ = (
        "n_qubits",
        "n_events",
        "layers",
        "mixture_groups",
        "n_source_gates",
        "n_ops",
    )

    def __init__(self, n_qubits, n_events, layers, mixture_groups,
                 n_source_gates):
        self.n_qubits = n_qubits
        self.n_events = n_events
        #: ``[(ops, events), ...]`` — one entry per schedule layer.
        self.layers = layers
        #: ``[(cum, columns), ...]`` — mixture events grouped by channel.
        self.mixture_groups = mixture_groups
        self.n_source_gates = n_source_gates
        self.n_ops = sum(len(ops) for ops, _ in layers)

    def sample_choices(self, uniforms: np.ndarray) -> np.ndarray | None:
        """Outcome indices for every mixture event of every trajectory.

        One batched ``searchsorted`` per distinct channel over the
        chunk's pre-drawn uniforms — element-for-element the same
        values per-event sampling produces, so results stay chunk- and
        worker-invariant.  Columns of general (non-
        mixture) events are left untouched; their probabilities depend
        on the state and are resolved at application time.
        """
        if not self.mixture_groups:
            return None
        choices = np.empty(uniforms.shape, dtype=np.intp)
        for cum, cols in self.mixture_groups:
            choices[:, cols] = np.searchsorted(
                cum, uniforms[:, cols], side="right"
            )
        return choices


def compile_program(
    circuit: Circuit,
    noise: NoiseModel | None = None,
    *,
    layered: bool = True,
    fuse: bool = True,
    fuse2q: bool = True,
) -> SimProgram:
    """Lower a circuit (+ noise model) into a :class:`SimProgram`.

    ``layered`` selects DAG front-layer scheduling (the statevector
    engine) over flat gate order (the MPS and density engines);
    ``fuse``/``fuse2q`` mirror the engine knobs for 1q and same-pair 2q
    fusion.  The returned program is self-contained — engines touch
    neither the circuit nor the noise model again.
    """
    offsets, n_events = noise_event_layout(circuit, noise)
    schedule = gate_schedule(circuit, layered)
    if fuse:
        schedule = fuse_schedule(schedule, noise, two_qubit=fuse2q)
    noisy = is_noisy(noise)
    channels = channels_for(noise) if noisy else None
    layers = []
    mixture_cols: dict[int, tuple[np.ndarray, list[int]]] = {}
    for layer in schedule:
        ops = tuple(
            ProgramOp(gate.qubits, gate.matrix()) for _, gate in layer
        )
        events = []
        if noisy:
            for pos, gate in layer:
                if pos < 0:
                    continue  # fused operators carry no noise events
                qubits = noise.noisy_qubits(gate)
                if not qubits:
                    continue
                kraus, mixture = channels.get(noise.rate_for(gate))
                for j, q in enumerate(qubits):
                    column = offsets[pos] + j
                    events.append(NoiseEvent(q, column, kraus, mixture))
                    if mixture is not None:
                        group = mixture_cols.setdefault(
                            id(mixture), (mixture.cum, [])
                        )
                        group[1].append(column)
        layers.append((ops, tuple(events)))
    mixture_groups = tuple(
        (cum, np.asarray(cols, dtype=np.intp))
        for cum, cols in mixture_cols.values()
    )
    return SimProgram(
        circuit.n_qubits, n_events, tuple(layers), mixture_groups,
        len(circuit.gates),
    )


class ProgramCache:
    """Thread-safe LRU of compiled programs, keyed by content.

    Sized for working sets like a compile-batch objective grid or an
    rq-sweep's circuit family; eviction is least-recently-used.  Hit
    and miss counters make cache behavior testable and observable.
    """

    def __init__(self, maxsize: int = 64):
        if maxsize < 1:
            raise ValueError("program cache needs room for one entry")
        self.maxsize = int(maxsize)
        self._lock = threading.Lock()
        self._programs: OrderedDict[tuple, SimProgram] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(
        self,
        circuit: Circuit,
        noise: NoiseModel | None = None,
        *,
        layered: bool = True,
        fuse: bool = True,
        fuse2q: bool = True,
    ) -> SimProgram:
        """The compiled program for this triple, compiling on miss.

        Compilation happens outside the lock — two threads racing on
        one key may both compile, but the result is identical and the
        last insert wins, so correctness is unaffected.
        """
        key = program_key(
            circuit, noise, layered=layered, fuse=fuse, fuse2q=fuse2q
        )
        with self._lock:
            program = self._programs.get(key)
            if program is not None:
                self._programs.move_to_end(key)
                self.hits += 1
                return program
            self.misses += 1
        program = compile_program(
            circuit, noise, layered=layered, fuse=fuse, fuse2q=fuse2q
        )
        with self._lock:
            self._programs[key] = program
            self._programs.move_to_end(key)
            while len(self._programs) > self.maxsize:
                self._programs.popitem(last=False)
        return program

    def __len__(self) -> int:
        with self._lock:
            return len(self._programs)

    def clear(self) -> None:
        with self._lock:
            self._programs.clear()
            self.hits = 0
            self.misses = 0

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "entries": len(self._programs),
                "maxsize": self.maxsize,
            }


#: Process-wide default cache: chunks, workers, repeated runs, and all
#: three engines share it unless a private cache is injected.
_GLOBAL_CACHE = ProgramCache()


def default_program_cache() -> ProgramCache:
    """The process-wide shared :class:`ProgramCache`."""
    return _GLOBAL_CACHE


__all__ = [
    "DepolarizingChannels",
    "NoiseEvent",
    "ProgramCache",
    "ProgramOp",
    "SimProgram",
    "channels_for",
    "compile_program",
    "default_program_cache",
    "program_key",
]
