"""Structural and target-aware verification of the circuit IR.

Machine-checked invariants for every compilation stage: the structural
checkers (:func:`verify_circuit`, :func:`verify_table`) validate what any
well-formed circuit must satisfy — qubit indices in range, known gate
names with matching arities, finite parameters, wire-consistent acyclic
DAG edges — while the target-aware checkers (:func:`check_basis`,
:func:`check_connectivity`, :func:`check_schedule`) validate what a
*compiled* circuit promises about a hardware target.  All of them raise
:class:`VerificationError`, which names the offending node and the
violated contract so a pipeline failure reads like a type error, not a
wrong fidelity three layers later.

:mod:`repro.analysis.contracts` builds the per-pass contract system on
top of these checkers; ``PassManager(validate=...)`` drives it.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from repro.circuits.circuit import (
    ONE_QUBIT_GATES,
    TWO_QUBIT_GATES,
    Circuit,
    Gate,
    canonical_gate_name,
    is_idle_marker,
)
from repro.circuits.dag import BOUNDARY

#: Gate vocabularies a lowering stage may promise.  ``"u3"`` is the
#: trasyn workflow IR, ``"rz"`` the gridsynth workflow IR (discrete 1q
#: gates pass through :func:`repro.transpiler.decompose_to_rz_basis`
#: untouched), ``"clifford_t"`` the fully synthesized output.
BASIS_SETS: dict[str, frozenset[str]] = {
    "u3": frozenset({"u3", "cx", "cz", "swap", "i"}),
    "rz": frozenset(
        {"rz", "h", "s", "sdg", "t", "tdg", "x", "y", "z", "i",
         "cx", "cz", "swap"}
    ),
    "clifford_t": frozenset(
        {"h", "s", "sdg", "t", "tdg", "x", "y", "z", "i",
         "cx", "cz", "swap"}
    ),
}

#: Above this size the unitary-preservation check is skipped (dense
#: 2^n x 2^n matrices); structural/basis/connectivity checks have no
#: size limit.
UNITARY_CHECK_MAX_QUBITS = 7


class VerificationError(Exception):
    """A compilation invariant was violated.

    Attributes
    ----------
    contract:
        The violated contract name (``"structural"``, ``"basis"``,
        ``"connectivity"``, ``"schedule"``, ``"unitary_preserving"``).
    node:
        A human-readable description of the offending gate/node
        (``"gate 3: cx(0, 5)"``), or None for circuit-level violations.
    pass_name:
        The pipeline pass after which the violation was detected, when
        raised through ``PassManager(validate=...)``; None otherwise.
    """

    def __init__(
        self,
        message: str,
        *,
        contract: str | None = None,
        node: str | None = None,
        pass_name: str | None = None,
    ):
        self.message = message
        self.contract = contract
        self.node = node
        self.pass_name = pass_name
        parts = []
        if contract:
            parts.append(f"[{contract}]")
        if pass_name:
            parts.append(f"after pass {pass_name!r}:")
        if node:
            parts.append(f"at {node}:")
        parts.append(message)
        super().__init__(" ".join(parts))

    def with_pass(self, pass_name: str) -> "VerificationError":
        """A copy of this error attributed to a pipeline pass."""
        return VerificationError(
            self.message,
            contract=self.contract,
            node=self.node,
            pass_name=pass_name,
        )




def describe_gate(index: int, gate: Gate) -> str:
    """The node spelling used in every error: ``gate 3: cx(0, 5)``."""
    qubits = ", ".join(str(q) for q in gate.qubits)
    return f"gate {index}: {gate.name}({qubits})"


def _check_gate(gate: Gate, n_qubits: int, where: str) -> None:
    """Gate-level structural checks shared by circuit and DAG verify."""

    def fail(msg: str) -> VerificationError:
        return VerificationError(msg, contract="structural", node=where)

    name = gate.name
    if name != canonical_gate_name(name):
        raise fail(f"gate name {name!r} is not canonical (lower-case)")
    if name in ONE_QUBIT_GATES:
        arity = 1
    elif name in TWO_QUBIT_GATES:
        arity = 2
    else:
        raise fail(f"unknown gate {name!r}")
    if len(gate.qubits) != arity:
        raise fail(
            f"{name} expects {arity} qubit(s), got {len(gate.qubits)}"
        )
    for q in gate.qubits:
        if not isinstance(q, (int, np.integer)):
            raise fail(f"non-integer qubit index {q!r}")
        if not 0 <= q < n_qubits:
            raise fail(
                f"qubit {q} out of range for a {n_qubits}-qubit circuit"
            )
    if len(set(gate.qubits)) != len(gate.qubits):
        raise fail("duplicate qubits in one gate")
    if is_idle_marker(gate):
        # Scheduler idle markers: "i" carrying its duration as the
        # single parameter (see repro.circuits.is_idle_marker).
        expected_params = 1
    elif name == "u3":
        expected_params = 3
    elif name in ("rx", "ry", "rz"):
        expected_params = 1
    else:
        expected_params = 0
    if len(gate.params) != expected_params:
        raise fail(
            f"{name} expects {expected_params} parameter(s), "
            f"got {len(gate.params)}"
        )
    for p in gate.params:
        if not math.isfinite(p):
            raise fail(f"non-finite parameter {p!r}")


def verify_circuit(circuit: Circuit) -> None:
    """Structural verification of a gate-list circuit.

    Checks: positive qubit count, every gate known with the right
    arity and parameter count, all qubit indices in range and distinct
    within a gate, all parameters finite.  Raises
    :class:`VerificationError` (contract ``"structural"``) at the
    first violation.
    """
    if circuit.n_qubits < 1:
        raise VerificationError(
            f"circuit has {circuit.n_qubits} qubits", contract="structural"
        )
    for i, gate in enumerate(circuit.gates):
        _check_gate(gate, circuit.n_qubits, describe_gate(i, gate))


def verify_table(table) -> None:
    """Structural verification of a columnar :class:`DAGTable`.

    Run by ``PassManager(validate="full")`` on every DAG pass between a
    table kernel and linearization.  Validates the per-gate invariants
    plus the column invariants every vectorized kernel relies on: the
    alive count matches the mask, dead rows are never linked, each
    wire is a consistent doubly linked chain from ``first`` to ``last``
    visiting exactly the alive rows on that qubit, and ``pos`` strictly
    increases along every wire (which bounds every edge, so the graph
    is acyclic).  Raises :class:`VerificationError` (contract
    ``"structural"``).
    """
    if table.n_qubits < 1:
        raise VerificationError(
            f"table has {table.n_qubits} qubits", contract="structural"
        )
    alive_ids = np.nonzero(table.alive)[0]
    if alive_ids.shape[0] != len(table):
        raise VerificationError(
            f"alive mask marks {alive_ids.shape[0]} rows but the table "
            f"counts {len(table)}",
            contract="structural",
        )
    alive = set(alive_ids.tolist())
    links: dict[int, dict[str, dict[int, int]]] = {}
    for i in alive_ids.tolist():
        gate = table.gate(i)
        where = f"row {i}: {describe_gate(i, gate)[6:]}"
        _check_gate(gate, table.n_qubits, where)
        preds = {int(table.q0[i]): int(table.pred0[i])}
        succs = {int(table.q0[i]): int(table.succ0[i])}
        if int(table.q1[i]) >= 0:
            preds[int(table.q1[i])] = int(table.pred1[i])
            succs[int(table.q1[i])] = int(table.succ1[i])
        if set(preds) != set(gate.qubits):
            raise VerificationError(
                f"wire columns cover qubits {sorted(preds)} but the gate "
                f"acts on {sorted(set(gate.qubits))}",
                contract="structural",
                node=where,
            )
        links[i] = {"preds": preds, "succs": succs}
    for i, tables in links.items():
        where = f"row {i}"
        for kind, other_kind in (("preds", "succs"), ("succs", "preds")):
            for q, other in tables[kind].items():
                if other == BOUNDARY:
                    continue
                if other not in alive:
                    raise VerificationError(
                        f"{kind}[{q}] points at dead or missing row {other}",
                        contract="structural",
                        node=where,
                    )
                if links[other][other_kind].get(q) != i:
                    raise VerificationError(
                        f"wire {q} link to row {other} is not mirrored "
                        f"({kind} edge without its reverse)",
                        contract="structural",
                        node=where,
                    )
    q0 = table.q0
    q1 = table.q1
    pos = table.pos
    for q in range(table.n_qubits):
        expected = {
            int(i)
            for i in alive_ids.tolist()
            if int(q0[i]) == q or int(q1[i]) == q
        }
        seen: list[int] = []
        i = int(table.first[q])
        prev_pos = -math.inf
        while i != BOUNDARY:
            if i not in alive:
                raise VerificationError(
                    f"wire {q} chain reaches dead or missing row {i}",
                    contract="structural",
                )
            if float(pos[i]) <= prev_pos:
                raise VerificationError(
                    f"wire {q} pos is not strictly increasing at row {i} "
                    f"({pos[i]!r} after {prev_pos!r})",
                    contract="structural",
                    node=f"row {i}",
                )
            prev_pos = float(pos[i])
            seen.append(i)
            if len(seen) > len(expected):
                raise VerificationError(
                    f"wire {q} chain cycles or visits foreign rows "
                    f"(walked {seen[-4:]} beyond the {len(expected)} "
                    f"gates on this wire)",
                    contract="structural",
                    node=f"row {i}",
                )
            i = links[i]["succs"][q]
        if set(seen) != expected:
            missing = sorted(expected - set(seen))
            extra = sorted(set(seen) - expected)
            raise VerificationError(
                f"wire {q} chain mismatch: missing rows {missing}, "
                f"foreign rows {extra}",
                contract="structural",
            )
        last = seen[-1] if seen else BOUNDARY
        if int(table.last[q]) != last:
            raise VerificationError(
                f"wire {q} last is {int(table.last[q])}, chain ends at "
                f"{last}",
                contract="structural",
            )


def resolve_basis(basis: str | Iterable[str]) -> frozenset[str]:
    """An allowed-gate set from a named vocabulary or explicit names."""
    if isinstance(basis, str):
        try:
            return BASIS_SETS[basis]
        except KeyError:
            raise ValueError(
                f"unknown basis {basis!r} "
                f"(expected one of {sorted(BASIS_SETS)} or an iterable "
                "of gate names)"
            ) from None
    return frozenset(canonical_gate_name(g) for g in basis)


def check_basis(circuit: Circuit, basis: str | Iterable[str]) -> None:
    """Every gate drawn from the promised vocabulary.

    ``basis`` is a :data:`BASIS_SETS` name (``"u3"``, ``"rz"``,
    ``"clifford_t"``) or an explicit iterable of gate names (e.g. a
    :class:`repro.target.Target`'s ``basis_gates``).  Idle markers are
    always allowed — they are scheduling metadata, not gates a device
    executes.  Raises :class:`VerificationError` (contract
    ``"basis"``).
    """
    allowed = resolve_basis(basis)
    label = basis if isinstance(basis, str) else "target basis"
    for i, gate in enumerate(circuit.gates):
        if is_idle_marker(gate):
            continue
        if canonical_gate_name(gate.name) not in allowed:
            raise VerificationError(
                f"gate {gate.name!r} is not in the {label} vocabulary "
                f"{sorted(allowed)}",
                contract="basis",
                node=describe_gate(i, gate),
            )


def check_connectivity(
    circuit: Circuit, target, *, directed: bool | None = None
) -> None:
    """Every 2q gate placed on a coupling edge of ``target``.

    ``directed=None`` (default) respects the coupling map's own
    directedness: on a directed map, ``cx`` must point along a native
    edge orientation (``cz``/``swap`` are symmetric and only need the
    edge), exactly what :func:`repro.target.fix_gate_directions`
    establishes.  Pass ``directed=False`` to accept either orientation
    — the mid-pipeline state between routing and direction fixing.
    Raises :class:`VerificationError` (contract ``"connectivity"``).
    """
    coupling = target.coupling
    if directed is None:
        directed = coupling.directed
    if circuit.n_qubits > target.n_qubits:
        raise VerificationError(
            f"circuit uses {circuit.n_qubits} qubits but the target "
            f"{target.name or '<unnamed>'} has {target.n_qubits}",
            contract="connectivity",
        )
    for i, gate in enumerate(circuit.gates):
        if len(gate.qubits) != 2:
            continue
        a, b = gate.qubits
        if not coupling.has_edge(a, b):
            raise VerificationError(
                f"2q gate on ({a}, {b}) but the target has no such "
                "coupling edge",
                contract="connectivity",
                node=describe_gate(i, gate),
            )
        if directed and gate.name == "cx" and not coupling.allows(a, b):
            raise VerificationError(
                f"cx points {a}->{b} against the directed coupling "
                f"(native orientation is {b}->{a})",
                contract="connectivity",
                node=describe_gate(i, gate),
            )


def check_schedule(schedule, circuit: Circuit | None = None) -> None:
    """Timed-schedule consistency: no per-qubit overlap, real makespan.

    Validates that no qubit executes two gates at once (spans on one
    wire never overlap), that every span has non-negative start and
    duration, and that the recorded makespan equals the latest span
    end (0 for an empty schedule).  With ``circuit`` given, also
    checks the schedule covers exactly the circuit's gates.  Raises
    :class:`VerificationError` (contract ``"schedule"``).
    """
    tol = 1e-9
    latest = 0.0
    per_qubit: dict[int, list] = {}
    for span in schedule.spans:
        where = (
            f"node {span.node_id}: {span.gate.name}"
            f"{tuple(span.gate.qubits)} @ [{span.start:g}, {span.end:g}]"
        )
        if span.start < -tol or span.end < span.start - tol:
            raise VerificationError(
                "span has negative start or duration",
                contract="schedule",
                node=where,
            )
        latest = max(latest, span.end)
        for q in span.gate.qubits:
            per_qubit.setdefault(q, []).append(span)
    for q, spans in per_qubit.items():
        spans.sort(key=lambda s: (s.start, s.end))
        for prev, cur in zip(spans, spans[1:]):
            if cur.start < prev.end - tol:
                raise VerificationError(
                    f"qubit {q} runs two gates at once "
                    f"(node {prev.node_id} ends {prev.end:g}, "
                    f"node {cur.node_id} starts {cur.start:g})",
                    contract="schedule",
                    node=f"node {cur.node_id}",
                )
    if abs(schedule.makespan - latest) > tol:
        raise VerificationError(
            f"makespan {schedule.makespan:g} does not equal the latest "
            f"span end {latest:g}",
            contract="schedule",
        )
    if circuit is not None and len(schedule.spans) != len(circuit.gates):
        raise VerificationError(
            f"schedule covers {len(schedule.spans)} gates but the "
            f"circuit has {len(circuit.gates)}",
            contract="schedule",
        )


def unitaries_equivalent(
    before: Circuit, after: Circuit, tol: float = 1e-7
) -> bool:
    """Whether two circuits implement the same unitary up to phase.

    Uses the phase-invariant overlap ``|tr(U_a^dag U_b)| / dim``; both
    circuits must have the same qubit count.  Guarded by the callers
    to :data:`UNITARY_CHECK_MAX_QUBITS`.
    """
    if before.n_qubits != after.n_qubits:
        return False
    ua = before.unitary(max_qubits=UNITARY_CHECK_MAX_QUBITS + 1)
    ub = after.unitary(max_qubits=UNITARY_CHECK_MAX_QUBITS + 1)
    dim = ua.shape[0]
    return abs(abs(np.trace(ua.conj().T @ ub)) / dim - 1.0) < tol
