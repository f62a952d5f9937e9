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


def _front_layers(
    circuit: Circuit,
) -> tuple[tuple[tuple[int, Gate], ...], ...]:
    """ASAP layers from one scan over the gates: each gate lands one
    level past the last gate on any of its wires."""
    free = [0] * circuit.n_qubits  # the first level open on each wire
    layers: list[list[tuple[int, Gate]]] = []
    for pos, gate in enumerate(circuit.gates):
        qubits = gate.qubits
        if len(qubits) == 1:
            (q,) = qubits
            level = free[q]
            free[q] = level + 1
        else:
            level = max([free[q] for q in qubits], default=0)
            for q in qubits:
                free[q] = level + 1
        if level == len(layers):
            layers.append([(pos, gate)])
        else:
            layers[level].append((pos, gate))
    return tuple(map(tuple, layers))


class ScheduleCache:
    """Thread-safe LRU of front-layer schedules.

    The ProgramCache pattern applied one stage earlier: repeated
    program compilation of the same circuit (objective grids, fidelity
    sweeps, differing noise models) skips the front-layer wire scan by
    keying on gate-stream content rather than object identity.  Entries
    are immutable tuple-of-tuples layers, shared read-only by every
    consumer; gates are immutable, so sharing is safe.  Two threads
    missing one key may both compute, but the results are identical and
    the last insert wins.
    """

    def __init__(self, maxsize: int = 128):
        if maxsize < 1:
            raise ValueError("schedule cache needs room for one entry")
        self.maxsize = int(maxsize)
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, tuple] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def layers(self, circuit: Circuit):
        """The (cached) layer schedule of :func:`gate_schedule`."""
        key = _circuit_key(circuit)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return entry
            self.misses += 1
        entry = _front_layers(circuit)
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


#: Process-wide default cache: the fused recipe's schedule derivation
#: goes through it unless a private cache is passed explicitly.
_GLOBAL_SCHEDULE_CACHE = ScheduleCache()


def schedule_cache() -> ScheduleCache:
    """The process-wide :class:`ScheduleCache`."""
    return _GLOBAL_SCHEDULE_CACHE


def gate_schedule(circuit: Circuit, *, cache: ScheduleCache | None = None):
    """The front-layer (ASAP) schedule, as layers of ``(position, gate)``.

    Computed in one scan over the gates that keeps, per qubit, the
    level after the wire's last gate; each gate lands on the highest
    such level among its qubits.  This is
    ``CircuitDAG.as_layers()``'s layering, since a fresh DAG's
    topological order is source order.  Gates within a layer act on
    pairwise-disjoint qubits, so an engine may apply a whole layer —
    and then the layer's noise events, in flat-list order — without
    changing the sequential semantics.  ``position`` is the gate's
    index in ``circuit.gates``, which keys the noise-event offsets: a
    trajectory consumes the same uniform for the same gate whatever
    the schedule, so layered and flat runs of one seed draw the same
    noise.

    Results are memoized content-keyed in a :class:`ScheduleCache`
    (the process-wide one unless ``cache`` is given) and returned as
    immutable tuple-of-tuples layers — treat them as read-only.
    """
    # Explicit None test: an empty ScheduleCache is falsy via __len__.
    if cache is None:
        cache = _GLOBAL_SCHEDULE_CACHE
    return cache.layers(circuit)


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
