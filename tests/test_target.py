"""Tests for the hardware target model: coupling maps, targets, layouts."""

import numpy as np
import pytest

from repro.circuits import Circuit
from repro.sim import NoiseModel, evaluate_fidelity
from repro.target import (
    CouplingMap,
    Layout,
    Target,
    dense_layout,
    parse_target,
    resolve_layout,
    trivial_layout,
)


class TestCouplingMap:
    def test_line_shape(self):
        cmap = CouplingMap.line(5)
        assert cmap.n_qubits == 5
        assert len(cmap.edges) == 4
        assert cmap.distance(0, 4) == 4
        assert cmap.neighbors(2) == (1, 3)
        assert cmap.is_connected()
        assert cmap.diameter() == 4

    def test_ring_shape(self):
        cmap = CouplingMap.ring(6)
        assert len(cmap.edges) == 6
        assert cmap.distance(0, 3) == 3
        assert cmap.distance(0, 5) == 1
        assert cmap.diameter() == 3

    def test_ring_too_small(self):
        with pytest.raises(ValueError):
            CouplingMap.ring(2)

    def test_grid_shape(self):
        cmap = CouplingMap.grid(3, 4)
        assert cmap.n_qubits == 12
        # Internal qubits have degree 4, corners 2.
        assert cmap.degree(5) == 4
        assert cmap.degree(0) == 2
        # Manhattan distances on the lattice.
        assert cmap.distance(0, 11) == 5
        assert cmap.has_edge(0, 4) and not cmap.has_edge(0, 5)

    def test_heavy_hex_sparse_and_connected(self):
        cmap = CouplingMap.heavy_hex(3)
        assert cmap.is_connected()
        assert max(cmap.degree(q) for q in range(cmap.n_qubits)) <= 3
        # Bridge qubits (appended after the row qubits) have degree 2.
        assert all(
            cmap.degree(q) == 2 for q in range(3 * 5, cmap.n_qubits)
        )

    def test_all_to_all(self):
        cmap = CouplingMap.all_to_all(5)
        assert len(cmap.edges) == 10
        assert cmap.diameter() == 1

    def test_shortest_path_endpoints(self):
        cmap = CouplingMap.grid(2, 3)
        path = cmap.shortest_path(0, 5)
        assert path[0] == 0 and path[-1] == 5
        assert len(path) == cmap.distance(0, 5) + 1
        assert all(cmap.has_edge(a, b) for a, b in zip(path, path[1:]))

    def test_directed_allows(self):
        cmap = CouplingMap(3, [(0, 1), (1, 2)], directed=True)
        assert cmap.allows(0, 1) and not cmap.allows(1, 0)
        # Undirected queries still see both orientations.
        assert cmap.has_edge(1, 0)
        assert cmap.distance(2, 0) == 2

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            CouplingMap(2, [(0, 2)])
        with pytest.raises(ValueError):
            CouplingMap(2, [(1, 1)])

    def test_disconnected_detected(self):
        cmap = CouplingMap(4, [(0, 1), (2, 3)])
        assert not cmap.is_connected()
        with pytest.raises(ValueError):
            cmap.distance(0, 2)


class TestTarget:
    def test_constructor_names(self):
        assert Target.line(8).name == "line:8"
        assert Target.grid(3, 3).name == "grid:3x3"
        assert Target.heavy_hex(2).n_qubits > 2 * 3

    def test_json_roundtrip(self, tmp_path):
        t = Target.grid(
            2, 3,
            gate_errors={"cx": 1e-2, "t": 1e-3},
            gate_durations={"cx": 300.0},
            edge_errors={(0, 1): 5e-3},
        )
        path = tmp_path / "target.json"
        t.save(str(path))
        back = Target.load(str(path))
        assert back.coupling == t.coupling
        assert back.gate_errors == t.gate_errors
        assert back.gate_durations == t.gate_durations
        assert back.edge_errors == t.edge_errors
        assert back.name == t.name

    def test_from_dict_missing_field(self):
        with pytest.raises(ValueError, match="missing field"):
            Target.from_dict({"edges": []})

    def test_save_is_atomic(self, tmp_path, monkeypatch):
        # A crash mid-write must never corrupt an existing calibration
        # file: the write goes to a tmp file first (regression test for
        # the in-place json.dump this replaced).
        import os as os_mod

        t_old = Target.line(3, gate_errors={"cx": 1e-2})
        t_new = Target.line(3, gate_errors={"cx": 9e-2})
        path = tmp_path / "target.json"
        t_old.save(str(path))

        def exploding_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(
            "repro.target.target.os.replace", exploding_replace
        )
        with pytest.raises(OSError, match="disk full"):
            t_new.save(str(path))
        monkeypatch.undo()
        # The original survives intact and no tmp litter remains.
        assert Target.load(str(path)).gate_errors == {"cx": 1e-2}
        assert os_mod.listdir(tmp_path) == ["target.json"]
        # And the happy path really replaces the contents.
        t_new.save(str(path))
        assert Target.load(str(path)).gate_errors == {"cx": 9e-2}
        assert os_mod.listdir(tmp_path) == ["target.json"]

    def test_parse_target_grammar(self):
        assert parse_target("line:8").n_qubits == 8
        assert parse_target("ring:12").n_qubits == 12
        assert parse_target("grid:3x3").n_qubits == 9
        assert parse_target("all_to_all:5").coupling.diameter() == 1
        assert parse_target("heavy_hex:2x4").n_qubits > 8

    def test_parse_target_json(self, tmp_path):
        path = tmp_path / "t.json"
        Target.line(4).save(str(path))
        assert parse_target(str(path)).n_qubits == 4

    @pytest.mark.parametrize(
        "spec", ["nonsense", "line", "grid:3", "grid:axb", "mesh:4", "line:x"]
    )
    def test_parse_target_rejects(self, spec):
        with pytest.raises(ValueError):
            parse_target(spec)

    @pytest.mark.parametrize(
        "spec",
        ["grid:3x", "grid:x3", "heavy_hex:2x", "line:-3", "ring:-1",
         "grid:0x4", "all_to_all:0", "line:", ":4", "heavy_hex:one"],
    )
    def test_parse_target_malformed_and_negative(self, spec):
        # Every malformed/negative spec must fail with the offending
        # spec quoted, never an IndexError or a silent empty target.
        with pytest.raises(ValueError) as exc:
            parse_target(spec)
        assert spec in str(exc.value) or "target" in str(exc.value)

    def test_parse_target_missing_json(self, tmp_path):
        missing = str(tmp_path / "nope.json")
        with pytest.raises(FileNotFoundError):
            parse_target(missing)

    def test_parse_target_corrupt_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"edges": []}')
        with pytest.raises(ValueError, match="missing field"):
            parse_target(str(path))

    def test_mixed_case_calibration_roundtrip(self, tmp_path):
        # Regression: vendor-style spellings (CX, Tdg) in calibration
        # JSON must land on the canonical keys circuit gates use.
        t = Target.line(
            3,
            gate_errors={"CX": 1e-2, "Tdg": 1e-3, "H": 5e-4},
            gate_durations={"CX": 300.0, "T": 40.0},
            idle_error_rate=1e-5,
        )
        assert t.gate_errors == {"cx": 1e-2, "tdg": 1e-3, "h": 5e-4}
        assert t.gate_durations == {"cx": 300.0, "t": 40.0}
        path = tmp_path / "cal.json"
        t.save(str(path))
        back = Target.load(str(path))
        assert back.gate_errors == t.gate_errors
        assert back.gate_durations == t.gate_durations
        assert back.idle_error_rate == pytest.approx(1e-5)
        # The derived noise model sees the calibrated rate for IR gates.
        nm = NoiseModel.from_target(back)
        assert nm.rate_for(Circuit(1).tdg(0).gates[0]) == pytest.approx(1e-3)
        assert nm.rate_for(Circuit(2).cx(0, 1).gates[0]) == pytest.approx(1e-2)


class TestLayout:
    def test_trivial_and_swap(self):
        lay = Layout.trivial(4)
        lay.swap_physical(0, 2)
        assert lay.physical(0) == 2 and lay.physical(2) == 0
        assert lay.virtual(2) == 0 and lay.virtual(0) == 2
        assert sorted(lay.as_list()) == [0, 1, 2, 3]

    def test_from_mapping_fills_ancillas(self):
        lay = Layout.from_mapping({0: 3, 1: 1}, 4)
        assert lay.physical(0) == 3 and lay.physical(1) == 1
        # Remaining virtual wires take the free physical qubits in order.
        assert sorted(lay.as_list()) == [0, 1, 2, 3]

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            Layout([0, 0, 1])
        with pytest.raises(ValueError):
            Layout.from_mapping({0: 1, 1: 1}, 3)

    def test_dense_layout_places_interactions_adjacent(self):
        # A 3-qubit chain circuit on a 5-qubit line: the dense layout
        # must place the interacting pairs at distance 1.
        c = Circuit(3).cx(0, 1).cx(1, 2).cx(0, 1)
        t = Target.line(5)
        lay = dense_layout(c, t)
        assert t.coupling.distance(lay.physical(0), lay.physical(1)) == 1
        assert t.coupling.distance(lay.physical(1), lay.physical(2)) == 1
        for v in range(len(lay)):
            assert lay.virtual(lay.physical(v)) == v

    def test_dense_layout_prefers_low_error_region(self):
        # Same degree everywhere on a ring; edge errors single out the
        # 4-5 neighborhood as bad, so the busy pair should avoid it.
        errs = {(4, 5): 0.5, (3, 4): 0.5, (5, 0): 0.5}
        t = Target.ring(6, edge_errors=errs)
        c = Circuit(2).cx(0, 1).cx(0, 1)
        lay = dense_layout(c, t)
        pair = {lay.physical(0), lay.physical(1)}
        assert pair != {4, 5}

    def test_layout_roundtrip_on_directed_coupling(self):
        # Routing + direction fixing on a one-way line: the routed
        # circuit must equal the original up to the final permutation.
        from repro.target import (
            CouplingMap,
            fix_gate_directions,
            route_circuit,
            routed_statevector_equivalent,
        )

        cmap = CouplingMap(4, [(0, 1), (1, 2), (2, 3)], directed=True)
        t = Target(cmap, name="directed_line:4")
        c = Circuit(4).h(0).cx(1, 0).cx(0, 2).cx(3, 1)
        routed = route_circuit(c, t, layout="dense")
        assert routed_statevector_equivalent(c, routed)
        fixed, n_fixes = fix_gate_directions(routed.circuit, t)
        assert n_fixes >= 1  # cx(1, 0)-style reversals must be repaired
        assert all(
            cmap.allows(*g.qubits)
            for g in fixed.gates
            if g.name == "cx" and len(g.qubits) == 2
        )
        # H conjugation is exact: the state is unchanged.
        assert np.allclose(
            fixed.statevector(), routed.circuit.statevector()
        )

    def test_resolve_layout_errors(self):
        c = Circuit(2).cx(0, 1)
        with pytest.raises(ValueError, match="unknown layout"):
            resolve_layout("magic", c, Target.line(3))
        with pytest.raises(ValueError):
            resolve_layout(Layout.trivial(2), c, Target.line(3))
        with pytest.raises(ValueError):
            trivial_layout(Circuit(5), Target.line(3))


class TestNoiseFromTarget:
    def test_rates_table(self):
        t = Target.line(2, gate_errors={"cx": 1e-2, "T": 1e-3, "h": 0.0})
        nm = NoiseModel.from_target(t)
        assert nm.rate == pytest.approx(1e-2)
        assert nm.rate_for(Circuit(2).cx(0, 1).gates[0]) == pytest.approx(1e-2)
        # Case-normalized lookup; zero-rate gates are noiseless.
        assert nm.rate_for(Circuit(1).t(0).gates[0]) == pytest.approx(1e-3)
        assert nm.noisy_qubits(Circuit(1).h(0).gates[0]) == ()

    def test_rejects_empty_table(self):
        with pytest.raises(ValueError):
            NoiseModel.from_target(Target.line(2))

    def test_density_matches_uniform_when_rates_equal(self):
        # A one-entry table must reproduce the uniform model exactly.
        c = Circuit(2).h(0).cx(0, 1).t(1).cx(0, 1)
        t = Target.line(2, gate_errors={"cx": 0.05})
        hetero = NoiseModel.from_target(t)
        uniform = NoiseModel(
            0.05, lambda g: g.name == "cx"
        )
        f_h = evaluate_fidelity(c, noise=hetero, backend="density").fidelity
        f_u = evaluate_fidelity(c, noise=uniform, backend="density").fidelity
        assert f_h == pytest.approx(f_u, abs=1e-12)
        assert f_h < 1.0

    def test_trajectories_agree_with_density(self):
        c = Circuit(3).h(0).cx(0, 1).cx(1, 2).t(2).cx(1, 2)
        t = Target.line(3, gate_errors={"cx": 0.02, "t": 0.01})
        nm = NoiseModel.from_target(t)
        exact = evaluate_fidelity(c, noise=nm, backend="density").fidelity
        mc = evaluate_fidelity(
            c, noise=nm, backend="statevector", trajectories=3000, seed=5
        )
        assert mc.fidelity == pytest.approx(exact, abs=0.02)

    def test_scale(self):
        t = Target.line(2, gate_errors={"cx": 1e-2})
        nm = NoiseModel.from_target(t, scale=2.0)
        assert nm.rate == pytest.approx(2e-2)


class TestExports:
    def test_top_level_exports(self):
        import repro

        assert repro.Target is Target
        assert repro.CouplingMap is CouplingMap
        t = repro.parse_target("line:3")
        res = repro.route_circuit(Circuit(3).cx(0, 2), t, layout="trivial")
        assert isinstance(res, repro.RoutingResult)
        assert res.swaps_inserted >= 1

    def test_numpy_free_of_surprise(self):
        # Layout lists round-trip through numpy ints (CLI/JSON paths).
        lay = Layout(np.array([1, 0, 2]))
        assert lay.as_list() == (1, 0, 2)
