"""Routing correctness: edge compliance, unitary equivalence, metrics."""

import math

import numpy as np
import pytest

from repro.bench_circuits import ft_algorithms as ft
from repro.circuits import Circuit, CircuitDAG
from repro.pipeline import compile_circuit
from repro.target import (
    CouplingMap,
    Layout,
    Target,
    fix_gate_directions,
    naive_route,
    on_coupling_edges,
    permute_statevector,
    route_circuit,
    route_dag,
    routed_statevector_equivalent,
)

TARGETS = [Target.line(6), Target.ring(6), Target.grid(2, 3)]


def random_circuit(n: int, n_gates: int, rng: np.random.Generator) -> Circuit:
    """A random circuit mixing 1q rotations and long-range 2q gates."""
    c = Circuit(n)
    two_q = ("cx", "cz", "swap")
    for _ in range(n_gates):
        r = rng.random()
        if r < 0.35:
            q = int(rng.integers(n))
            c.rz(float(rng.uniform(0, 2 * math.pi)), q)
        elif r < 0.5:
            c.h(int(rng.integers(n)))
        else:
            a, b = (int(q) for q in rng.choice(n, size=2, replace=False))
            c.append(two_q[int(rng.integers(3))], (a, b))
    return c


def layout_permutation_matrix(l2p, n: int) -> np.ndarray:
    """Dense P(L): virtual basis state -> physical basis state."""
    dim = 2**n
    P = np.zeros((dim, dim))
    for i in range(dim):
        bits = [(i >> (n - 1 - v)) & 1 for v in range(n)]
        j = sum(bits[v] << (n - 1 - l2p[v]) for v in range(n))
        P[j, i] = 1.0
    return P


class TestRouteProperties:
    """Property tests: routed == original up to the output permutation."""

    @pytest.mark.parametrize("target", TARGETS, ids=lambda t: t.name)
    @pytest.mark.parametrize("layout", ["trivial", "dense"])
    @pytest.mark.parametrize("n_qubits", [3, 4, 5, 6])
    def test_routed_statevector_equivalence(self, target, layout, n_qubits):
        rng = np.random.default_rng(
            [n_qubits, sum(ord(ch) for ch in target.name)]
        )
        for _ in range(3):
            c = random_circuit(n_qubits, 30, rng)
            res = route_circuit(c, target, layout=layout)
            assert on_coupling_edges(res.circuit, target)
            assert routed_statevector_equivalent(c, res)
            assert sorted(res.permutation) == list(range(target.n_qubits))

    @pytest.mark.parametrize("target", TARGETS, ids=lambda t: t.name)
    def test_unitary_equivalence_up_to_permutation(self, target):
        # Full-operator check on one random 4-qubit circuit per target:
        # R == P(Lf) (C (x) I) P(L0)^T exactly.
        rng = np.random.default_rng(17)
        c = random_circuit(4, 20, rng)
        res = route_circuit(c, target, layout="dense")
        n = target.n_qubits
        pad = np.eye(2 ** (n - c.n_qubits))
        embedded = np.kron(c.unitary(), pad)
        p0 = layout_permutation_matrix(res.initial_layout.as_list(), n)
        pf = layout_permutation_matrix(res.final_layout.as_list(), n)
        expected = pf @ embedded @ p0.T
        assert np.allclose(res.circuit.unitary(), expected, atol=1e-9)

    def test_naive_route_equivalence(self):
        rng = np.random.default_rng(3)
        c = random_circuit(5, 25, rng)
        res = naive_route(c, Target.line(5))
        assert on_coupling_edges(res.circuit, Target.line(5))
        assert routed_statevector_equivalent(c, res)
        # The naive strategy always restores its layout.
        assert res.final_layout == res.initial_layout


class TestRouterQuality:
    def test_qft4_beats_naive_on_line(self):
        # Acceptance criterion: fewer swaps than naive
        # adjacent-transposition lowering on qft_n4 / line:4.
        bench = ft.qft(4)
        target = Target.line(4)
        sabre = route_circuit(bench, target, layout="trivial")
        naive = naive_route(bench, target)
        assert on_coupling_edges(sabre.circuit, target)
        assert sabre.swaps_inserted < naive.swaps_inserted

    def test_all_to_all_needs_no_swaps(self):
        c = ft.qft(5)
        res = route_circuit(c, Target.all_to_all(5))
        assert res.swaps_inserted == 0
        assert res.metrics.depth_after == res.metrics.depth_before

    def test_metrics_consistency(self):
        c = ft.qft(4)
        res = route_circuit(c, Target.line(4), layout="trivial")
        n_swaps_in_circuit = sum(
            1 for g in res.circuit.gates if g.name == "swap"
        ) - sum(1 for g in c.gates if g.name == "swap")
        assert res.metrics.swaps_inserted == n_swaps_in_circuit
        assert len(res.circuit.gates) == len(c.gates) + res.swaps_inserted

    def test_route_dag_signature(self):
        c = Circuit(3).cx(0, 2)
        dag = CircuitDAG.from_circuit(c)
        routed, final, swaps = route_dag(dag, Target.line(3))
        assert isinstance(routed, CircuitDAG)
        assert isinstance(final, Layout)
        assert swaps >= 1
        assert on_coupling_edges(routed.to_circuit(), Target.line(3))

    def test_rejects_oversized_circuit(self):
        with pytest.raises(ValueError):
            route_circuit(Circuit(5).cx(0, 4), Target.line(3))

    def test_rejects_disconnected_target(self):
        t = Target(CouplingMap(4, [(0, 1), (2, 3)]), name="split")
        with pytest.raises(ValueError):
            route_circuit(Circuit(4).cx(0, 3), t)


class TestFixDirections:
    def test_reverses_against_the_grain(self):
        cmap = CouplingMap(3, [(0, 1), (2, 1)], directed=True)
        t = Target(cmap, name="directed-line")
        c = Circuit(3).cx(0, 1).cx(1, 2)  # second cx points the wrong way
        fixed, n = fix_gate_directions(c, t)
        assert n == 1
        assert all(
            cmap.allows(*g.qubits) for g in fixed.gates if g.name == "cx"
        )
        assert np.allclose(fixed.unitary(), c.unitary(), atol=1e-12)

    def test_undirected_is_identity(self):
        c = Circuit(3).cx(0, 1).cx(2, 1)
        fixed, n = fix_gate_directions(c, Target.line(3))
        assert n == 0
        assert [g.name for g in fixed.gates] == ["cx", "cx"]

    def test_rejects_unrouted(self):
        with pytest.raises(ValueError, match="off the coupling map"):
            fix_gate_directions(Circuit(3).cx(0, 2), Target.line(3))
        with pytest.raises(ValueError, match="off the coupling map"):
            fix_gate_directions(Circuit(3).cz(0, 2), Target.line(3))


class TestPipelineIntegration:
    def test_compile_grid_acceptance(self):
        # compile_circuit(circ, target=Target.grid(2,3), level 3) yields
        # only coupling-edge 2q gates and stays equivalent to the
        # original up to the routing permutation, a global phase and
        # the synthesis error.
        bench = ft.qft(4)
        target = Target.grid(2, 3)
        res = compile_circuit(
            bench, workflow="gridsynth", eps=0.01,
            optimization_level=3, target=target,
        )
        assert res.circuit.n_qubits == target.n_qubits
        assert on_coupling_edges(res.circuit, target)
        anc = np.zeros(2 ** (target.n_qubits - bench.n_qubits), dtype=complex)
        anc[0] = 1.0
        expected = permute_statevector(
            np.kron(bench.statevector(), anc), res.routing.permutation
        )
        overlap = abs(np.vdot(expected, res.circuit.statevector()))
        assert overlap >= 1.0 - res.total_synthesis_error

    @pytest.mark.parametrize("basis", ["u3", "rz"])
    @pytest.mark.parametrize("level", [0, 2, 4])
    def test_preset_levels_stay_on_edges(self, basis, level):
        rng = np.random.default_rng(11)
        c = random_circuit(4, 25, rng)
        target = Target.ring(4)
        workflow, eps = ("trasyn", 0.15) if basis == "u3" else (
            "gridsynth", 0.05
        )
        res = compile_circuit(
            c, workflow=workflow, eps=eps, optimization_level=level,
            target=target,
        )
        assert on_coupling_edges(res.circuit, target)

    def test_directed_target_through_preset(self):
        cmap = CouplingMap(4, [(1, 0), (1, 2), (3, 2)], directed=True)
        target = Target(cmap, name="directed-zigzag")
        res = compile_circuit(
            ft.qft(4), workflow="gridsynth", eps=0.05,
            optimization_level=2, target=target,
        )
        for g in res.circuit.gates:
            if g.name == "cx":
                assert cmap.allows(*g.qubits)
            elif len(g.qubits) == 2:
                assert cmap.has_edge(*g.qubits)

    def test_compile_circuit_carries_routing(self):
        bench = ft.qft(4)
        target = Target.line(4)
        res = compile_circuit(
            bench, workflow="trasyn", eps=0.05,
            optimization_level=2, target=target,
        )
        assert res.routing is not None
        assert res.routing.swaps_inserted > 0
        assert on_coupling_edges(res.circuit, target)
        assert res.routing.metrics.depth_after >= res.routing.metrics.depth_before

    def test_compile_directed_routing_reflects_fixes(self):
        from repro.circuits import depth as circ_depth

        cmap = CouplingMap(3, [(1, 0), (2, 1)], directed=True)
        target = Target(cmap, name="directed-line")
        res = compile_circuit(
            Circuit(3).cx(0, 1).cx(1, 2), workflow="gridsynth",
            eps=0.05, optimization_level=1, target=target,
        )
        r = res.routing
        assert r.metrics.direction_fixes > 0
        # routing.circuit is the direction-fixed circuit actually
        # compiled, and the depth metric matches it.
        assert all(
            cmap.allows(*g.qubits) for g in r.circuit.gates
            if g.name == "cx"
        )
        assert r.metrics.depth_after == circ_depth(r.circuit)

    def test_compile_without_target_has_no_routing(self):
        res = compile_circuit(
            ft.qft(3), workflow="trasyn", eps=0.05, optimization_level=1
        )
        assert res.routing is None

    def test_best_level_with_target(self):
        bench = ft.qft(3)
        target = Target.ring(3)
        res = compile_circuit(
            bench, workflow="gridsynth", eps=0.05,
            optimization_level="best", target=target,
        )
        assert on_coupling_edges(res.circuit, target)


class TestConnectivityExperiment:
    def test_rq6_rows(self):
        from repro.bench_circuits.suite import BenchmarkCase
        from repro.experiments import run_connectivity_comparison
        from repro.experiments.rq6_connectivity import connectivity_rows
        from repro.experiments.reporting import routing_table

        cases = [BenchmarkCase("qft_n4", "ft_algorithm", ft.qft(4))]
        results = run_connectivity_comparison(
            cases, topologies=("all_to_all", "line")
        )
        assert len(results) == 2
        by_topo = {r.topology: r for r in results}
        assert by_topo["all_to_all"].swaps == 0
        assert by_topo["line"].swaps > 0
        assert by_topo["line"].ratio > 0
        table = routing_table(connectivity_rows(results))
        assert "swaps" in table and "qft_n4" in table

    def test_target_for_rejects_unknown(self):
        from repro.experiments import target_for

        with pytest.raises(ValueError):
            target_for(4, "torus")
        assert target_for(5, "grid").n_qubits >= 5


class TestScorerEquivalence:
    """The vectorized swap scorer must match the closure scorer exactly."""

    SCORER_TARGETS = {
        "line": lambda: Target.line(8),
        "ring": lambda: Target.ring(8),
        "grid": lambda: Target.grid(2, 4),
    }

    @staticmethod
    def _with_errors(target: Target, rng: np.random.Generator) -> Target:
        # Coarsely quantized rates so score ties actually happen and
        # the cost-aware tie-break path is exercised.
        rates = (1e-3, 2e-3, 5e-3)
        errs = {
            e: float(rng.choice(rates)) for e in target.coupling.edges
        }
        return Target(
            coupling=target.coupling, name=target.name, edge_errors=errs
        )

    @pytest.mark.parametrize("topology", sorted(SCORER_TARGETS))
    @pytest.mark.parametrize("layout", ["trivial", "dense"])
    @pytest.mark.parametrize("cost_aware", [False, True])
    def test_routing_byte_identical(self, topology, layout, cost_aware):
        rng = np.random.default_rng(hash((topology, layout, cost_aware)) % 2**32)
        base = self.SCORER_TARGETS[topology]()
        target = self._with_errors(base, rng) if cost_aware else base
        for trial in range(12):
            n = int(rng.integers(3, 9))
            circ = random_circuit(n, 40, rng)
            vec = route_circuit(
                circ, target, layout=layout,
                cost_aware=cost_aware, scorer="vector",
            )
            ref = route_circuit(
                circ, target, layout=layout,
                cost_aware=cost_aware, scorer="reference",
            )
            assert vec.circuit.gates == ref.circuit.gates
            assert vec.final_layout == ref.final_layout
            assert vec.metrics.swaps_inserted == ref.metrics.swaps_inserted

    @pytest.mark.parametrize("cost_aware", [False, True])
    def test_best_swap_picks_identical_edge(self, cost_aware):
        from repro.target.routing import _best_swap, _best_swap_reference

        rng = np.random.default_rng(99)
        base = Target.grid(3, 3)
        target = self._with_errors(base, rng)
        cost = target if cost_aware else None
        cmap = target.coupling
        n = target.n_qubits
        for trial in range(60):
            lay = Layout(rng.permutation(n))
            # Front pairs are wire-disjoint (ready gates never share a
            # qubit), matching the router's invariant.
            wires = list(rng.permutation(n))
            front = [
                (wires[2 * i], wires[2 * i + 1])
                for i in range(int(rng.integers(1, 4)))
            ]
            extended = [
                tuple(int(q) for q in rng.choice(n, size=2, replace=False))
                for _ in range(int(rng.integers(0, 5)))
            ]
            got = _best_swap(
                cmap, lay, front, extended, None, cost
            )
            want = _best_swap_reference(
                cmap, lay, front, extended, None, cost
            )
            assert got == want

    def test_scorer_argument_validated(self):
        c = Circuit(2)
        c.cx(0, 1)
        with pytest.raises(ValueError, match="scorer"):
            route_circuit(c, Target.line(2), scorer="fancy")


class TestOscillationGuard:
    """Degree-1 corridors must not ping-pong the same swap."""

    def test_sole_candidate_equal_to_last_swap_returns_none(self):
        from repro.target.routing import _best_swap, _best_swap_reference

        cmap = CouplingMap.line(2)
        lay = Layout.trivial(2)
        for scorer in (_best_swap, _best_swap_reference):
            assert (
                scorer(cmap, lay, [(0, 1)], [], (0, 1), None) is None
            )

    @pytest.mark.parametrize("n", [4, 6, 10, 16])
    def test_line_worst_case_swap_bound(self, n):
        # Repeated far-pair interactions on an open chain: the known
        # worst case for swap churn.  The bound is linear in the total
        # pair distance; an oscillating router blows through it (or
        # trips its internal swap-budget RuntimeError).
        t = Target.line(n)
        c = Circuit(n)
        for _ in range(3):
            for i in range(n // 2):
                c.append("cx", (i, n - 1 - i))
        res = route_circuit(c, t, layout="trivial")
        total_distance = sum(
            abs(g.qubits[0] - g.qubits[1]) for g in c.gates
        )
        assert res.swaps_inserted <= 2 * total_distance
        assert on_coupling_edges(res.circuit, t)
