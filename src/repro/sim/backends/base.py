"""The simulation-backend protocol.

Every engine — exact density matrix, Monte-Carlo statevector
trajectories, bond-truncated MPS — implements :class:`SimulatorBackend`
and returns a :class:`SimulationResult`.  Results know how to score
themselves against a *reference* pure state supplied as a dense
statevector, a :class:`~repro.tensornet.circuit_mps.CircuitMPS`, or
another result, so experiment code never touches engine internals.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from collections import OrderedDict

import numpy as np

from repro.circuits.circuit import Circuit, Gate
from repro.circuits.dag import CircuitDAG
from repro.sim.noise import NoiseModel
from repro.tensornet.circuit_mps import CircuitMPS

#: Complex128 entries.
_ITEMSIZE = 16


def is_noisy(noise: NoiseModel | None) -> bool:
    """True when the model would actually inject Kraus channels."""
    return noise is not None and noise.rate > 0.0


def _circuit_key(circuit: Circuit) -> tuple:
    """Content identity of a gate stream (the ProgramCache discipline)."""
    return (
        circuit.n_qubits,
        tuple((g.name, g.qubits, g.params) for g in circuit.gates),
    )


def _compute_gate_schedule(
    circuit: Circuit, layered: bool
) -> tuple[tuple[tuple[int, Gate], ...], ...]:
    if not layered:
        return tuple(((i, g),) for i, g in enumerate(circuit.gates))
    layers = CircuitDAG.from_circuit(circuit).as_layers()
    return tuple(
        tuple((n.id, n.gate) for n in layer) for layer in layers
    )


class ScheduleCache:
    """Thread-safe LRU of layer schedules.

    The ProgramCache pattern applied one stage earlier: repeated
    program compilation of the same circuit (objective grids, fidelity
    sweeps, differing noise models) skips the ``as_layers()``
    front-layer scan by keying on gate-stream content rather than
    object identity.  Entries are immutable tuple-of-tuples
    layers, shared read-only by every consumer; gates are immutable, so
    sharing is safe.  Two threads missing one key may both compute, but
    the results are identical and the last insert wins.
    """

    def __init__(self, maxsize: int = 128):
        if maxsize < 1:
            raise ValueError("schedule cache needs room for one entry")
        self.maxsize = int(maxsize)
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, tuple] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def layers(self, circuit: Circuit, layered: bool):
        """The (cached) layer schedule of :func:`gate_schedule`."""
        key = (layered, _circuit_key(circuit))
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return entry
            self.misses += 1
        entry = _compute_gate_schedule(circuit, layered)
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
        return entry

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "entries": len(self._entries),
                "maxsize": self.maxsize,
            }


#: Process-wide default cache: every engine's schedule derivation goes
#: through it unless a private cache is passed explicitly.
_GLOBAL_SCHEDULE_CACHE = ScheduleCache()


def schedule_cache() -> ScheduleCache:
    """The process-wide :class:`ScheduleCache`."""
    return _GLOBAL_SCHEDULE_CACHE


def gate_schedule(
    circuit: Circuit, layered: bool, *, cache: ScheduleCache | None = None
):
    """The gate stream an engine drives, as layers of ``(position, gate)``.

    ``layered=True`` computes the front-layer (ASAP) schedule from the
    dependency DAG: gates within a layer act on pairwise-disjoint
    qubits, so an engine may apply a whole layer — and then the layer's
    noise events, in flat-list order — without changing the sequential
    semantics.  ``position`` is the gate's index in ``circuit.gates``,
    which keys the noise-event offsets: a trajectory consumes the same
    uniform for the same gate under either schedule, so layered and
    sequential runs of one seed produce identical fidelities.
    ``layered=False`` degrades to one gate per layer, in flat order.

    Results are memoized content-keyed in a :class:`ScheduleCache`
    (the process-wide one unless ``cache`` is given) and returned as
    immutable tuple-of-tuples layers — treat them as read-only.
    """
    # Explicit None test: an empty ScheduleCache is falsy via __len__.
    if cache is None:
        cache = _GLOBAL_SCHEDULE_CACHE
    return cache.layers(circuit, layered)


class Fused1Q:
    """A run of adjacent 1q gates on one wire, collapsed to a 2x2.

    Quacks like a :class:`~repro.circuits.circuit.Gate` as far as
    program compilation cares (``qubits``/``params``/``matrix()``); it
    never appears in circuits, only in fused schedules.  Fused entries
    carry no noise events, so they are scheduled with position ``-1``
    and the noise loop skips them.
    """

    __slots__ = ("name", "qubits", "params", "_matrix")

    def __init__(self, qubit: int, matrix: np.ndarray):
        self.name = "fused1q"
        self.qubits = (qubit,)
        self.params = ()
        self._matrix = matrix

    def matrix(self) -> np.ndarray:
        return self._matrix


class Fused2Q:
    """A block of same-pair 2q gates and sandwiched 1q runs, as one 4x4.

    ``qubits`` is the sorted pair ``(lo, hi)`` and the matrix lives in
    that qubit order (first factor = ``lo``), matching how the engines
    interpret a 2q ``Gate``.  Like :class:`Fused1Q`, fused blocks carry
    no noise events and are scheduled with position ``-1``.
    """

    __slots__ = ("name", "qubits", "params", "_matrix")

    def __init__(self, pair: tuple[int, int], matrix: np.ndarray):
        self.name = "fused2q"
        self.qubits = pair
        self.params = ()
        self._matrix = matrix

    def matrix(self) -> np.ndarray:
        return self._matrix


_EYE2 = np.eye(2, dtype=complex)


def _oriented_2q(gate: Gate) -> tuple[tuple[int, int], np.ndarray]:
    """A 2q gate's matrix re-expressed on its sorted qubit pair."""
    a, b = gate.qubits
    m = gate.matrix()
    if a < b:
        return (a, b), m
    return (b, a), m.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)


def fuse_schedule(
    schedule: list[list[tuple[int, Gate]]],
    noise: NoiseModel | None,
    *,
    two_qubit: bool = False,
) -> list[list[tuple[int, Gate]]]:
    """Fuse runs of noise-free gates into single dense operators.

    With ``two_qubit=False`` this is 1q fusion: consecutive noise-free
    1q gates per wire collapse into one 2x2 product (the dominant cost
    of deep Clifford+T streams, where synthesis expands every rotation
    into long 1q runs); any 2q or noisy gate touching the wire flushes
    the pending product first, so gate order per wire and the
    (gate, uniform) noise pairing are unchanged.

    ``two_qubit=True`` additionally collapses adjacent noise-free 2q
    gates on the *same* qubit pair — plus the noise-free 1q runs
    sandwiched between them — into single 4x4 operators
    (:class:`Fused2Q`).  This un-fences exactly the layers where 1q
    fusion stalls under gate noise: between two noise events the whole
    entangling block becomes one batched application.  Deferred
    operators commute with the other-wire gates and noise events that
    overtake them, because a pending block is flushed right before the
    first gate (noisy or differently-paired) touching one of its wires.
    """
    noisy = is_noisy(noise)
    pending_1q: dict[int, np.ndarray] = {}
    pending_2q: dict[tuple[int, int], np.ndarray] = {}
    wire_pair: dict[int, tuple[int, int]] = {}
    out: list[list[tuple[int, Gate]]] = []

    def flush(q: int, out_layer: list[tuple[int, Gate]]) -> None:
        pair = wire_pair.get(q)
        if pair is not None:
            out_layer.append((-1, Fused2Q(pair, pending_2q.pop(pair))))
            for w in pair:
                del wire_pair[w]
            return
        acc = pending_1q.pop(q, None)
        if acc is not None:
            out_layer.append((-1, Fused1Q(q, acc)))

    for layer in schedule:
        out_layer: list[tuple[int, Gate]] = []
        for pos, gate in layer:
            gate_noisy = noisy and noise.noisy_qubits(gate)
            if len(gate.qubits) == 1 and not gate_noisy:
                q = gate.qubits[0]
                pair = wire_pair.get(q)
                if pair is not None:
                    # Sandwiched 1q gate: fold into the open 4x4 block.
                    m = gate.matrix()
                    lift = (
                        np.kron(m, _EYE2) if q == pair[0]
                        else np.kron(_EYE2, m)
                    )
                    pending_2q[pair] = lift @ pending_2q[pair]
                else:
                    acc = pending_1q.get(q)
                    m = gate.matrix()
                    pending_1q[q] = m if acc is None else m @ acc
                continue
            if two_qubit and len(gate.qubits) == 2 and not gate_noisy:
                pair, m = _oriented_2q(gate)
                if wire_pair.get(pair[0]) == pair:
                    pending_2q[pair] = m @ pending_2q[pair]
                    continue
                for q in pair:
                    if wire_pair.get(q) is not None:
                        flush(q, out_layer)
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
                flush(q, out_layer)
            out_layer.append((pos, gate))
        if out_layer:
            out.append(out_layer)
    leftovers: list[tuple[int, tuple[int, Gate]]] = [
        (pair[0], (-1, Fused2Q(pair, m))) for pair, m in pending_2q.items()
    ]
    leftovers += [
        (q, (-1, Fused1Q(q, m))) for q, m in pending_1q.items()
    ]
    if leftovers:
        out.append([entry for _, entry in sorted(
            leftovers, key=lambda item: item[0]
        )])
    return out


def noise_event_layout(
    circuit: Circuit, noise: NoiseModel | None
) -> tuple[list[int], int]:
    """Per-gate uniform-column offsets and the total event count.

    One pass over the gate stream yields both facts every stochastic
    engine needs: ``offsets[pos]`` is gate ``pos``'s first column in the
    pre-drawn ``(n_traj, n_events)`` uniform matrix, and the returned
    total sizes that matrix.  Offsets follow the flat gate order
    regardless of scheduling, so the (gate, trajectory) → uniform
    pairing is schedule-invariant.
    """
    offsets: list[int] = []
    event = 0
    noisy = is_noisy(noise)
    for g in circuit.gates:
        offsets.append(event)
        if noisy:
            event += len(noise.noisy_qubits(g))
    return offsets, event


def reference_statevector(reference, n_qubits: int) -> np.ndarray:
    """Coerce any supported reference into a dense statevector."""
    if isinstance(reference, np.ndarray):
        vec = reference.reshape(-1)
        if vec.shape[0] != 2**n_qubits:
            raise ValueError(
                f"reference statevector has dimension {vec.shape[0]}, "
                f"expected {2**n_qubits}"
            )
        return np.asarray(vec, dtype=complex)
    if isinstance(reference, CircuitMPS):
        return reference.to_statevector()
    if isinstance(reference, SimulationResult):
        return reference.statevector()
    raise TypeError(
        f"unsupported reference of type {type(reference).__name__}; pass a "
        "statevector array, a CircuitMPS, or a SimulationResult"
    )


class SimulationResult(ABC):
    """Output of one backend run: a (possibly mixed/sampled) state."""

    backend: str
    n_qubits: int
    n_trajectories: int = 1
    wall_time: float = 0.0

    @abstractmethod
    def fidelity(self, reference) -> float:
        """Fidelity of the simulated state against a pure reference."""

    def infidelity(self, reference) -> float:
        return max(0.0, 1.0 - self.fidelity(reference))

    def fidelity_std_error(self, reference) -> float | None:
        """Sampling standard error of :meth:`fidelity`, if stochastic."""
        return None

    def statevector(self) -> np.ndarray:
        """Dense pure-state readout (noiseless single-trajectory runs)."""
        raise NotImplementedError(
            f"{self.backend} result does not expose a single statevector"
        )


class SimulatorBackend(ABC):
    """One simulation engine behind the common run/score protocol."""

    name: str

    @abstractmethod
    def run(
        self, circuit: Circuit, noise: NoiseModel | None = None
    ) -> SimulationResult:
        """Simulate ``circuit`` from |0..0> under optional noise."""

    @abstractmethod
    def supports(self, n_qubits: int, noisy: bool) -> bool:
        """Whether this engine can take on a problem of this shape."""

    @abstractmethod
    def memory_bytes(self, n_qubits: int, noisy: bool = True) -> int:
        """Approximate peak working-set size for ``n_qubits``.

        ``noisy`` matters for the trajectory engine, whose noiseless
        runs collapse to a single deterministic state.
        """

    def make_reference(self, circuit: Circuit):
        """Noiseless reference state in this backend's native format.

        The dense engines score against a plain statevector; the MPS
        engine overrides this to produce a same-bond-budget MPS so the
        overlap contraction stays cheap at 20+ qubits.
        """
        return circuit.statevector()
