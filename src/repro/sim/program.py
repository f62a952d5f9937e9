"""JIT-compiled simulation programs: compile once, run every chunk.

Rather than re-interpret the gate stream on every chunk of every run —
``gate.matrix()`` per gate per chunk, a channel table resolved per
noise event, one ``searchsorted`` per event column — every engine
drives a :class:`SimProgram`: :func:`compile_program` lowers a
``(circuit, noise)`` pair into flat form once, under one of two fixed
recipes:

* ``fused=True`` (the statevector engine): DAG front-layer order, with
  noise-free 1q runs fused into 2x2 products and same-pair 2q blocks
  into 4x4 products;
* ``fused=False`` (the density and MPS engines, one shared cache
  entry): flat source order, one operator per gate.

Under either recipe

* every operator is a precomputed dense matrix,
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

from repro.circuits.circuit import Circuit, Gate
from repro.sim.backends.base import (
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


def program_key(circuit: Circuit, noise: NoiseModel | None, *, fused: bool):
    """Content cache key: gate stream + resolved noise behavior + recipe.

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
    return (circuit.n_qubits, gates, noise_sig, fused)


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


def _oriented_2q(gate: Gate) -> tuple[tuple[int, int], np.ndarray]:
    """A 2q gate's matrix re-expressed on its sorted qubit pair."""
    a, b = gate.qubits
    m = gate.matrix()
    if a < b:
        return (a, b), m
    return (b, a), m.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)


def _fused_layers(circuit, noisy_qubits, gate_events) -> list[tuple]:
    """The statevector recipe: front layers with noise-free runs fused.

    Consecutive noise-free 1q gates per wire collapse into one 2x2
    product (the dominant cost of deep Clifford+T streams, where
    synthesis expands every rotation into long 1q runs).  Adjacent
    noise-free 2q gates on the *same* qubit pair — plus the noise-free
    1q runs sandwiched between them — collapse into one 4x4 operator on
    the sorted pair ``(lo, hi)`` (first factor = ``lo``), so between
    two noise events a whole entangling block is one batched
    application.  A pending product is flushed right before the first
    noisy or differently-paired gate touching one of its wires, so
    gate order per wire and the (gate, uniform) noise pairing are
    unchanged; deferred operators commute with the other-wire gates and
    noise events that overtake them.  Fused operators carry no noise
    events; what is still pending at the end forms one last layer.
    """
    pending_1q: dict[int, np.ndarray] = {}
    pending_2q: dict[tuple[int, int], np.ndarray] = {}
    wire_pair: dict[int, tuple[int, int]] = {}
    layers = []

    def flush(q: int, ops: list[ProgramOp]) -> None:
        pair = wire_pair.get(q)
        if pair is not None:
            ops.append(ProgramOp(pair, pending_2q.pop(pair)))
            for w in pair:
                del wire_pair[w]
            return
        acc = pending_1q.pop(q, None)
        if acc is not None:
            ops.append(ProgramOp((q,), acc))

    for layer in gate_schedule(circuit):
        ops: list[ProgramOp] = []
        events: list[NoiseEvent] = []
        for pos, gate in layer:
            noisy = noisy_qubits(gate)
            if len(gate.qubits) == 1 and not noisy:
                q = gate.qubits[0]
                m = gate.matrix()
                pair = wire_pair.get(q)
                if pair is not None:
                    # Sandwiched 1q gate: fold into the open 4x4 block.
                    lift = (
                        np.kron(m, _EYE2) if q == pair[0]
                        else np.kron(_EYE2, m)
                    )
                    pending_2q[pair] = lift @ pending_2q[pair]
                else:
                    acc = pending_1q.get(q)
                    pending_1q[q] = m if acc is None else m @ acc
                continue
            if len(gate.qubits) == 2 and not noisy:
                pair, m = _oriented_2q(gate)
                if wire_pair.get(pair[0]) == pair:
                    pending_2q[pair] = m @ pending_2q[pair]
                    continue
                for q in pair:
                    if wire_pair.get(q) is not None:
                        flush(q, ops)
                # Absorb each wire's pending 1q run into the new block.
                lo1q = pending_1q.pop(pair[0], None)
                hi1q = pending_1q.pop(pair[1], None)
                if lo1q is not None or hi1q is not None:
                    m = m @ np.kron(
                        _EYE2 if lo1q is None else lo1q,
                        _EYE2 if hi1q is None else hi1q,
                    )
                pending_2q[pair] = m
                wire_pair[pair[0]] = wire_pair[pair[1]] = pair
                continue
            for q in gate.qubits:
                flush(q, ops)
            ops.append(ProgramOp(gate.qubits, gate.matrix()))
            events += gate_events(pos, gate, noisy)
        if ops:
            layers.append((tuple(ops), tuple(events)))
    leftovers = [
        (pair[0], ProgramOp(pair, m)) for pair, m in pending_2q.items()
    ]
    leftovers += [(q, ProgramOp((q,), m)) for q, m in pending_1q.items()]
    if leftovers:
        leftovers.sort(key=lambda item: item[0])
        layers.append((tuple(op for _, op in leftovers), ()))
    return layers


def compile_program(
    circuit: Circuit,
    noise: NoiseModel | None = None,
    *,
    fused: bool,
) -> SimProgram:
    """Lower a circuit (+ noise model) into a :class:`SimProgram`.

    Each engine fixes its recipe.  ``fused=True`` is the statevector
    engine's: DAG front-layer order with noise-free 1q runs and
    same-pair 2q blocks fused (:func:`_fused_layers`).  ``fused=False``
    is the flat source order, one operator and one layer per gate,
    which the density and MPS engines share.  The returned program is
    self-contained — engines touch neither the circuit nor the noise
    model again.
    """
    offsets, n_events = noise_event_layout(circuit, noise)
    noisy = is_noisy(noise)
    channels = channels_for(noise) if noisy else None
    mixture_cols: dict[int, tuple[np.ndarray, list[int]]] = {}

    def noisy_qubits(gate: Gate) -> tuple[int, ...]:
        return noise.noisy_qubits(gate) if noisy else ()

    def gate_events(pos: int, gate: Gate, qubits) -> list[NoiseEvent]:
        if not qubits:
            return []
        kraus, mixture = channels.get(noise.rate_for(gate))
        events = []
        for j, q in enumerate(qubits):
            column = offsets[pos] + j
            events.append(NoiseEvent(q, column, kraus, mixture))
            if mixture is not None:
                group = mixture_cols.setdefault(
                    id(mixture), (mixture.cum, [])
                )
                group[1].append(column)
        return events

    if fused:
        layers = _fused_layers(circuit, noisy_qubits, gate_events)
    else:
        layers = [
            (
                (ProgramOp(gate.qubits, gate.matrix()),),
                tuple(gate_events(pos, gate, noisy_qubits(gate))),
            )
            for pos, gate in enumerate(circuit.gates)
        ]
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
        fused: bool,
    ) -> SimProgram:
        """The compiled program for this triple, compiling on miss.

        Compilation happens outside the lock — two threads racing on
        one key may both compile, but the result is identical and the
        last insert wins, so correctness is unaffected.
        """
        key = program_key(circuit, noise, fused=fused)
        with self._lock:
            program = self._programs.get(key)
            if program is not None:
                self._programs.move_to_end(key)
                self.hits += 1
                return program
            self.misses += 1
        program = compile_program(circuit, noise, fused=fused)
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
