"""ASAP/ALAP timed schedules over the dependency DAG.

A :class:`Schedule` assigns every gate a start/end time computed from
the circuit's :class:`~repro.circuits.CircuitDAG` and a per-gate
duration table (normally a :class:`repro.target.Target`'s
``gate_durations``; unlisted gates fall back to arity-based defaults).
Two disciplines are provided:

* ``asap`` — every gate starts the moment its wire predecessors end
  (the front-layer schedule with real durations),
* ``alap`` — every gate ends the moment its successors must start,
  anchored to the ASAP makespan.

The spread between the two is a node's *slack*: zero-slack nodes form
the critical path, and per-qubit idle time (makespan minus busy time)
is the exposure the ESP cost model (:func:`repro.target.cost
.estimate_esp`) converts into an idle-decoherence penalty.
:func:`insert_idle_markers` materializes those idle periods as
parameterized identity gates so the simulation backends can apply
duration-scaled idle noise and validate the prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from repro.circuits.circuit import (
    Circuit,
    Gate,
    canonical_gate_name,
    is_idle_marker,
)
from repro.circuits.dag import BOUNDARY, CircuitDAG

#: Fallback durations (schedule time units) by gate arity.
DEFAULT_DURATION_1Q = 1.0
DEFAULT_DURATION_2Q = 3.0
#: Arity defaults a name-keyed table may override; SWAP defaults to
#: three CX worth of time, matching its standard decomposition.
DEFAULT_DURATIONS: dict[str, float] = {"swap": 3.0 * DEFAULT_DURATION_2Q}

SCHEDULE_METHODS = ("asap", "alap")
#: Idle gaps no longer than this (float round-off) get no marker.
MIN_IDLE_DURATION = 1e-12


def duration_of(gate: Gate, durations: Mapping[str, float] | None = None) -> float:
    """The duration of one gate under a (possibly partial) table.

    Lookup order: idle markers carry their duration as their parameter;
    then the explicit table (canonical names); then
    :data:`DEFAULT_DURATIONS`; then the arity default.
    """
    if is_idle_marker(gate):
        return float(gate.params[0])
    name = canonical_gate_name(gate.name)
    if durations:
        hit = durations.get(name)
        if hit is not None:
            return float(hit)
    hit = DEFAULT_DURATIONS.get(name)
    if hit is not None:
        return hit
    return DEFAULT_DURATION_1Q if len(gate.qubits) == 1 else DEFAULT_DURATION_2Q


@dataclass(frozen=True)
class GateSpan:
    """One scheduled gate occurrence: node id, gate, time interval."""

    node_id: int
    gate: Gate
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Schedule:
    """A timed schedule: per-gate spans plus timeline accounting."""

    n_qubits: int
    spans: list[GateSpan]
    makespan: float
    method: str = "asap"
    name: str = ""
    _by_node: dict[int, GateSpan] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: Lazy per-qubit span index: every accounting query (busy/idle,
    #: marker insertion, rendering) is per-qubit, so one pass over the
    #: spans amortizes what would otherwise be O(n_qubits * spans).
    _per_qubit: dict[int, list[GateSpan]] | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self):
        if not self._by_node:
            self._by_node = {s.node_id: s for s in self.spans}

    def __len__(self) -> int:
        return len(self.spans)

    def span(self, node_id: int) -> GateSpan:
        return self._by_node[node_id]

    # -- per-qubit accounting ------------------------------------------------
    def qubit_spans(self, qubit: int) -> list[GateSpan]:
        """Spans touching one qubit, in start-time order."""
        if self._per_qubit is None:
            index: dict[int, list[GateSpan]] = {
                q: [] for q in range(self.n_qubits)
            }
            for s in self.spans:
                for q in s.gate.qubits:
                    index[q].append(s)
            # schedule_dag emits spans pre-sorted, but hand-built
            # Schedules keep the same ordering contract.
            for lst in index.values():
                lst.sort(key=lambda s: (s.start, s.node_id))
            self._per_qubit = index
        return self._per_qubit[qubit]

    def busy_time(self, qubit: int) -> float:
        return sum(s.duration for s in self.qubit_spans(qubit))

    def idle_time(self, qubit: int) -> float:
        """Makespan minus busy time: the qubit's decoherence exposure."""
        return max(0.0, self.makespan - self.busy_time(qubit))

    def idle_slack(self) -> dict[int, float]:
        """Per-qubit idle time over the whole schedule window."""
        return {q: self.idle_time(q) for q in range(self.n_qubits)}

    @property
    def total_idle(self) -> float:
        return sum(self.idle_slack().values())

    @property
    def utilization(self) -> float:
        """Busy fraction of the qubit-time area (1.0 = no idling)."""
        area = self.makespan * self.n_qubits
        if area <= 0:
            return 1.0
        return 1.0 - self.total_idle / area

    # -- rendering -----------------------------------------------------------
    def render(self, width: int = 60) -> str:
        """ASCII timeline: one row per qubit, time left to right.

        Each gate paints its name's first letter over its time span
        (``*`` marks a multi-qubit gate); ``.`` is idle time.  Purely
        diagnostic — precision is limited by the column resolution.
        """
        if not self.spans or self.makespan <= 0:
            return "\n".join(
                f"q{q:<3d} |" + "." * width for q in range(self.n_qubits)
            )
        scale = width / self.makespan
        rows = []
        for q in range(self.n_qubits):
            row = ["."] * width
            for s in self.qubit_spans(q):
                lo = min(width - 1, int(math.floor(s.start * scale)))
                hi = max(lo + 1, min(width, int(math.ceil(s.end * scale))))
                mark = "*" if len(s.gate.qubits) > 1 else s.gate.name[0]
                for k in range(lo, hi):
                    row[k] = mark
            rows.append(f"q{q:<3d} |" + "".join(row))
        unit = self.makespan / width
        rows.append(f"     +{'-' * width} one column ~ {unit:.3g} time units")
        return "\n".join(rows)

    def summary(self) -> str:
        lines = [
            f"{self.method.upper()} schedule: {len(self.spans)} gates, "
            f"makespan {self.makespan:g}, "
            f"utilization {self.utilization:.1%}"
        ]
        slack = self.idle_slack()
        worst = max(slack, key=slack.get) if slack else None
        if worst is not None:
            lines.append(
                f"idle: total {self.total_idle:g}, "
                f"worst qubit q{worst} ({slack[worst]:g})"
            )
        return "\n".join(lines)


def schedule_dag(
    dag: CircuitDAG, target=None, method: str = "asap"
) -> Schedule:
    """Timed schedule of ``dag`` under ``target``'s duration table.

    Durations come from ``target.gate_durations`` (see
    :func:`duration_of`); with no target every gate takes its default.

    ``asap`` starts every gate as early as its wire predecessors allow;
    ``alap`` anchors to the ASAP makespan and starts every gate as late
    as its successors allow.  Both produce the same makespan — the
    critical-path time — and differ only in where slack accumulates.
    """
    if method not in SCHEDULE_METHODS:
        raise ValueError(
            f"unknown schedule method {method!r} "
            f"(expected one of {SCHEDULE_METHODS})"
        )
    table = getattr(target, "gate_durations", None) or {}
    order = list(dag.topological())
    end_asap: dict[int, float] = {}
    for node in order:
        t0 = max(
            (
                end_asap[p]
                for p in node.preds.values()
                if p != BOUNDARY
            ),
            default=0.0,
        )
        end_asap[node.id] = t0 + duration_of(node.gate, table)
    makespan = max(end_asap.values(), default=0.0)
    spans: list[GateSpan] = []
    if method == "asap":
        for node in order:
            end = end_asap[node.id]
            spans.append(
                GateSpan(node.id, node.gate,
                         end - duration_of(node.gate, table), end)
            )
    else:
        start_alap: dict[int, float] = {}
        for node in reversed(order):
            t1 = min(
                (
                    start_alap[s]
                    for s in node.succs.values()
                    if s != BOUNDARY
                ),
                default=makespan,
            )
            start_alap[node.id] = t1 - duration_of(node.gate, table)
            spans.append(GateSpan(node.id, node.gate, start_alap[node.id], t1))
        spans.reverse()
    spans.sort(key=lambda s: (s.start, s.node_id))
    return Schedule(
        n_qubits=dag.n_qubits,
        spans=spans,
        makespan=makespan,
        method=method,
        name=dag.name,
    )


def schedule_circuit(
    circuit: Circuit, target=None, method: str = "asap"
) -> Schedule:
    """Timed schedule of a flat circuit (see :func:`schedule_dag`)."""
    return schedule_dag(CircuitDAG.from_circuit(circuit), target, method)


def node_slacks(
    dag: CircuitDAG, target=None
) -> tuple[float, dict[int, float]]:
    """Per-node schedule slack: ALAP start minus ASAP start.

    Returns ``(makespan, slacks)``.  Zero-slack nodes sit on the
    critical path; a node's slack is how much its synthesis could
    stretch without lengthening the schedule — the criticality signal
    behind the epsilon-budget allocator
    (:func:`repro.synthesis.budget.allocate_eps_budget`).
    """
    asap = schedule_dag(dag, target, method="asap")
    alap = schedule_dag(dag, target, method="alap")
    slacks = {
        s.node_id: max(0.0, alap.span(s.node_id).start - s.start)
        for s in asap.spans
    }
    return asap.makespan, slacks


def idle_marker(qubit: int, duration: float) -> Gate:
    """An identity gate carrying an idle period's duration.

    The marker convention shared with
    :func:`repro.sim.noise.is_idle_marker`: plain IR ``"i"`` gates
    never carry parameters, so markers are unambiguous.
    """
    return Gate("i", (int(qubit),), (float(duration),))


def insert_idle_markers(
    circuit: Circuit, target=None, schedule: Schedule | None = None
) -> Circuit:
    """Materialize every idle period of the ASAP schedule as a marker.

    For each qubit, gaps between consecutive gates — plus the lead-in
    before its first gate and the tail out to the makespan — become
    :func:`idle_marker` gates spliced into the gate stream in start-
    time order.  The result is unitarily identical to ``circuit``
    (markers are identities) but lets a :class:`repro.sim.NoiseModel`
    with ``idle_rate`` set apply duration-scaled idle decoherence, so
    simulated fidelity accounts for exactly the slack the ESP cost
    model penalizes.  Gaps of :data:`MIN_IDLE_DURATION` or less get no
    marker.  The schedule is computed from ``target`` unless one is
    passed in.
    """
    if schedule is None:
        schedule = schedule_circuit(circuit, target, method="asap")
    elif schedule.method != "asap":
        raise ValueError("idle insertion expects an ASAP schedule")
    # (start time, tie-break, gate): original gates keep their flat
    # order via the node id; markers sort after gates starting together.
    events: list[tuple[float, int, int, Gate]] = [
        (s.start, 0, s.node_id, s.gate) for s in schedule.spans
    ]
    marker_seq = 0
    for q in range(circuit.n_qubits):
        cursor = 0.0
        for s in schedule.qubit_spans(q):
            if s.start - cursor > MIN_IDLE_DURATION:
                events.append(
                    (cursor, 1, marker_seq, idle_marker(q, s.start - cursor))
                )
                marker_seq += 1
            cursor = max(cursor, s.end)
        if schedule.makespan - cursor > MIN_IDLE_DURATION:
            events.append(
                (cursor, 1, marker_seq,
                 idle_marker(q, schedule.makespan - cursor))
            )
            marker_seq += 1
    events.sort(key=lambda e: (e[0], e[1], e[2]))
    out = Circuit(circuit.n_qubits, name=circuit.name)
    out.gates = [g for _, _, _, g in events]
    return out


def strip_idle_markers(circuit: Circuit) -> Circuit:
    """Remove every idle marker, recovering a plain gate stream.

    The inverse of :func:`insert_idle_markers` up to gate order within
    a start-time tie: re-compiling a scheduled circuit must not treat
    bookkeeping markers as gates, so pipelines strip them before
    optimization and the metrics ignore them either way.
    """
    out = Circuit(circuit.n_qubits, name=circuit.name)
    out.gates = [g for g in circuit.gates if not is_idle_marker(g)]
    return out


def with_idle_noise(circuit: Circuit, target, base_noise=None):
    """Idle-aware simulation setup: ``(marked_circuit, noise_model)``.

    Inserts idle markers per the ASAP schedule and extends
    ``base_noise`` (e.g. :meth:`repro.sim.NoiseModel.from_target`) with
    the target's ``idle_error_rate`` so backends decohere idle qubits
    at the schedule-predicted exposure.  With no idle rate the circuit
    and model pass through untouched.
    """
    from repro.sim.noise import NoiseModel

    idle_rate = float(getattr(target, "idle_error_rate", 0.0) or 0.0)
    if idle_rate <= 0.0:
        return circuit, base_noise
    marked = insert_idle_markers(circuit, target)
    return marked, NoiseModel.with_idle(base_noise, idle_rate)
