"""IR verifier and pass-contract tests (repro.analysis)."""

import math

import numpy as np
import pytest

from repro.analysis import (
    CONTRACT_VOCABULARY,
    ContractChecker,
    VerificationError,
    check_basis,
    check_connectivity,
    check_schedule,
    contract_of,
    verify_circuit,
    verify_compiled,
)
from repro.circuits import Circuit
from repro.circuits.circuit import Gate
from repro.pipeline import PassManager, preset_pipeline
from repro.pipeline.passes import DAGPass, MergeRuns, Pass
from repro.schedule import schedule_circuit
from repro.schedule.scheduler import GateSpan, Schedule
from repro.target import parse_target


def random_circuit(seed: int, n: int, depth: int = 20) -> Circuit:
    rng = np.random.default_rng(seed)
    c = Circuit(n)
    for _ in range(depth):
        r = rng.random()
        if r < 0.35:
            c.append(
                ["h", "s", "t", "x", "sdg"][int(rng.integers(5))],
                int(rng.integers(n)),
            )
        elif r < 0.7:
            c.append(
                ["rz", "rx", "ry"][int(rng.integers(3))],
                int(rng.integers(n)),
                (float(rng.uniform(0, 2 * math.pi)),),
            )
        else:
            a, b = rng.choice(n, 2, replace=False)
            c.cx(int(a), int(b))
    return c


class TestVerifyCircuit:
    def test_accepts_well_formed(self):
        verify_circuit(random_circuit(0, 4))

    def test_out_of_range_qubit(self):
        c = Circuit(2)
        c.h(0)
        c.gates.append(Gate("cx", (0, 5), ()))
        with pytest.raises(VerificationError, match="out of range") as exc:
            verify_circuit(c)
        assert exc.value.contract == "structural"
        assert "gate 1" in str(exc.value)
        assert "cx(0, 5)" in str(exc.value)

    def test_unknown_gate(self):
        c = Circuit(1)
        c.gates.append(Gate("frobnicate", (0,), ()))
        with pytest.raises(VerificationError, match="unknown gate"):
            verify_circuit(c)

    def test_wrong_arity(self):
        c = Circuit(2)
        c.gates.append(Gate("cx", (0,), ()))
        with pytest.raises(VerificationError, match="expects 2 qubit"):
            verify_circuit(c)

    def test_duplicate_qubits(self):
        c = Circuit(2)
        c.gates.append(Gate("cx", (1, 1), ()))
        with pytest.raises(VerificationError, match="duplicate qubits"):
            verify_circuit(c)

    def test_non_finite_param(self):
        c = Circuit(1)
        c.gates.append(Gate("rz", (0,), (float("nan"),)))
        with pytest.raises(VerificationError, match="non-finite"):
            verify_circuit(c)

    def test_empty_circuit_ok(self):
        verify_circuit(Circuit(1))


class TestCheckBasis:
    def test_clifford_t_accepts_and_rejects(self):
        c = Circuit(2)
        c.h(0)
        c.t(1)
        c.cx(0, 1)
        check_basis(c, "clifford_t")
        c.rz(0.3, 0)
        with pytest.raises(VerificationError, match="rz") as exc:
            check_basis(c, "clifford_t")
        assert exc.value.contract == "basis"
        assert "gate 3" in str(exc.value)

    def test_unknown_vocabulary_name(self):
        with pytest.raises(ValueError, match="unknown basis"):
            check_basis(Circuit(1), "nonsense")

    def test_explicit_gate_list(self):
        c = Circuit(1)
        c.h(0)
        check_basis(c, ["h", "t"])
        with pytest.raises(VerificationError):
            check_basis(c, ["t"])

    def test_idle_markers_always_allowed(self):
        c = Circuit(1)
        # Idle marker: "i" carrying its duration (the scheduler's
        # convention; Circuit.append would reject the parameter).
        c.gates.append(Gate("i", (0,), (2.5,)))
        check_basis(c, "u3")


class TestCheckConnectivity:
    def test_off_edge_gate(self):
        c = Circuit(4)
        c.cx(0, 3)  # grid:2x2 has no (0, 3) edge
        tgt = parse_target("grid:2x2")
        with pytest.raises(VerificationError, match="coupling edge") as exc:
            check_connectivity(c, tgt)
        assert exc.value.contract == "connectivity"
        assert "cx(0, 3)" in str(exc.value)

    def test_on_edge_gate(self):
        c = Circuit(4)
        c.cx(0, 1)
        c.cx(1, 3)
        check_connectivity(c, parse_target("grid:2x2"))

    def test_directed_orientation(self):
        from repro.target import CouplingMap, Target

        tgt = Target(CouplingMap(2, [(0, 1)], directed=True))
        ok = Circuit(2)
        ok.cx(0, 1)
        check_connectivity(ok, tgt)
        bad = Circuit(2)
        bad.cx(1, 0)
        with pytest.raises(VerificationError, match="against the directed"):
            check_connectivity(bad, tgt)


class TestCheckSchedule:
    def test_real_schedule_passes(self):
        c = random_circuit(2, 3)
        sched = schedule_circuit(c)
        check_schedule(sched, c)

    def test_overlap_detected(self):
        g = Gate("h", (0,), ())
        sched = Schedule(
            n_qubits=1,
            spans=[GateSpan(0, g, 0.0, 2.0), GateSpan(1, g, 1.0, 3.0)],
            makespan=3.0,
        )
        with pytest.raises(VerificationError, match="two gates at once"):
            check_schedule(sched)

    def test_makespan_mismatch(self):
        g = Gate("h", (0,), ())
        sched = Schedule(
            n_qubits=1, spans=[GateSpan(0, g, 0.0, 1.0)], makespan=5.0
        )
        with pytest.raises(VerificationError, match="makespan"):
            check_schedule(sched)

    def test_negative_span(self):
        g = Gate("h", (0,), ())
        sched = Schedule(
            n_qubits=1, spans=[GateSpan(0, g, 2.0, 1.0)], makespan=2.0
        )
        with pytest.raises(VerificationError, match="negative"):
            check_schedule(sched)


class _ExtraGatePass(Pass):
    """Claims unitary preservation, appends an X (contract violation)."""

    name = "extra_gate"
    ensures = ("unitary_preserving",)

    def run(self, circuit):
        out = Circuit(circuit.n_qubits, name=circuit.name)
        for g in circuit.gates:
            out.gates.append(g)
        out.x(0)
        return out


class _OffBasisPass(Pass):
    """Runs after a basis-establishing pass and emits a non-basis gate."""

    name = "off_basis"

    def run(self, circuit):
        out = Circuit(circuit.n_qubits, name=circuit.name)
        for g in circuit.gates:
            out.gates.append(g)
        out.append("rx", 0, (0.5,))
        return out


class _CorruptDagPass(DAGPass):
    """Breaks a wire link while rewriting the table."""

    name = "corrupt_dag"

    def run_table(self, table):
        table.succ0[0] = 10_000


class TestContractChecker:
    def test_modes_validated(self):
        with pytest.raises(ValueError, match="validate"):
            PassManager([], validate="everything")
        with pytest.raises(ValueError, match="validate"):
            ContractChecker("sometimes")

    def test_unknown_contract_name_rejected(self):
        class BadDecl(Pass):
            name = "bad_decl"
            ensures = ("rainbows",)

        with pytest.raises(VerificationError, match="rainbows"):
            contract_of(BadDecl())
        assert "rainbows" not in CONTRACT_VOCABULARY

    def test_unitary_violation_names_pass(self):
        c = Circuit(2)
        c.h(0)
        c.cx(0, 1)
        pm = PassManager([MergeRuns(), _ExtraGatePass()], validate="full")
        with pytest.raises(VerificationError) as exc:
            pm.run(c)
        assert exc.value.pass_name == "extra_gate"
        assert exc.value.contract == "unitary_preserving"

    def test_basis_violation_names_pass_and_node(self):
        c = Circuit(2)
        c.h(0)
        c.cx(0, 1)
        # MergeRuns establishes basis "u3"; the next pass emits rx.
        pm = PassManager([MergeRuns(), _OffBasisPass()], validate="full")
        with pytest.raises(VerificationError) as exc:
            pm.run(c)
        assert exc.value.contract == "basis"
        assert exc.value.pass_name == "off_basis"
        assert "rx" in str(exc.value)

    def test_corrupted_dag_names_pass(self):
        c = Circuit(2)
        c.h(0)
        c.cx(0, 1)
        c.t(1)
        pm = PassManager([_CorruptDagPass()], validate="full")
        with pytest.raises(VerificationError) as exc:
            pm.run(c)
        assert exc.value.pass_name == "corrupt_dag"
        assert exc.value.contract == "structural"

    def test_structural_mode_catches_corruption(self):
        class Corrupt(Pass):
            name = "corrupt"

            def run(self, circuit):
                out = Circuit(circuit.n_qubits)
                out.gates.append(Gate("cx", (0, 99), ()))
                return out

        c = Circuit(2)
        c.h(0)
        with pytest.raises(VerificationError) as exc:
            PassManager([Corrupt()], validate="structural").run(c)
        assert exc.value.pass_name == "corrupt"

    def test_off_mode_checks_nothing(self):
        c = Circuit(2)
        c.h(0)
        c.cx(0, 1)
        out = PassManager([_ExtraGatePass()], validate="off").run(c)
        assert len(out.gates) == 3

    def test_validated_input(self):
        bad = Circuit(1)
        bad.gates.append(Gate("h", (5,), ()))
        with pytest.raises(VerificationError):
            PassManager([], validate="structural").run(bad)


class TestVerifyCompiled:
    def test_levels(self):
        c = Circuit(2)
        c.h(0)
        c.cx(0, 1)
        verify_compiled(c)  # structural default
        verify_compiled(c, level="off")
        verify_compiled(c, level="full", basis="clifford_t")
        c.rz(0.2, 0)
        with pytest.raises(VerificationError):
            verify_compiled(c, level="full", basis="clifford_t")
        with pytest.raises(ValueError):
            verify_compiled(c, level="paranoid")


class TestPresetPipelinesValidateFull:
    """Every preset passes its own contracts on random circuits."""

    @pytest.mark.parametrize("basis", ["u3", "rz"])
    @pytest.mark.parametrize("level", [0, 1, 2, 3, 4])
    def test_presets_without_target(self, basis, level):
        for seed, n in ((0, 3), (1, 4), (2, 6)):
            c = random_circuit(seed, n)
            pm = preset_pipeline(basis, level, validate="full")
            out = pm.run(c)
            verify_circuit(out)

    @pytest.mark.parametrize("basis", ["u3", "rz"])
    @pytest.mark.parametrize("level", [0, 2, 4])
    def test_presets_with_target(self, basis, level):
        # Presets never route: compile_circuit routes onto the target,
        # then every level lowers the routed circuit without breaking
        # its contracts, and the output stays on the coupling map.
        from repro.pipeline import compile_circuit

        tgt = parse_target("grid:2x3")
        workflow, eps = ("trasyn", 0.15) if basis == "u3" else (
            "gridsynth", 0.05
        )
        for seed, n in ((3, 3), (4, 5), (5, 6)):
            c = random_circuit(seed, n)
            r = compile_circuit(
                c, workflow=workflow, eps=eps, optimization_level=level,
                target=tgt, validate="full",
            )
            check_connectivity(r.circuit, tgt)

    @pytest.mark.parametrize("basis", ["u3", "rz"])
    def test_presets_with_commutation(self, basis):
        c = random_circuit(6, 4)
        for level in (1, 3):
            preset_pipeline(
                basis, level, commutation=True, validate="full"
            ).run(c)


class TestCompileCircuitValidate:
    def test_full_validation_end_to_end(self):
        from repro.pipeline import compile_circuit

        tgt = parse_target("grid:2x2")
        c = random_circuit(7, 4, depth=12)
        r = compile_circuit(
            c, workflow="gridsynth", eps=0.05, target=tgt, validate="full"
        )
        check_basis(r.circuit, "clifford_t")
        check_connectivity(r.circuit, tgt)
        check_schedule(r.schedule)

    @pytest.mark.parametrize("objective", ["depth", "esp"])
    def test_search_verifies_every_routed_variant(
        self, monkeypatch, objective
    ):
        # An off-edge routed variant is rejected before it is lowered
        # or synthesized, as on the objective='count' route.
        from repro.pipeline import batch, compile_circuit
        from tests.test_pipeline import _UnreachableCache

        real_route = batch._route_to_target

        def off_edge_route(circuit, target, layout, cost_aware=None):
            routing, work = real_route(circuit, target, layout, cost_aware)
            broken = Circuit(work.n_qubits, name=work.name)
            broken.gates.extend(work.gates)
            broken.cx(0, target.n_qubits - 1)
            return routing, broken

        monkeypatch.setattr(batch, "_route_to_target", off_edge_route)
        c = Circuit(3)
        c.h(0).cx(0, 2).rz(0.3, 2)
        with pytest.raises(VerificationError) as exc:
            compile_circuit(
                c, workflow="gridsynth", eps=0.05, cache=_UnreachableCache(),
                target=parse_target("line:4"), objective=objective,
                validate="full",
            )
        assert exc.value.contract == "connectivity"

    def test_bad_validate_value(self):
        from repro.pipeline import compile_circuit

        with pytest.raises(ValueError, match="validate"):
            compile_circuit(Circuit(1), validate="totally")
