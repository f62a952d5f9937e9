"""Edge-case coverage: daggers, caching, angle normalization, drawing."""

import math
import re
import warnings

import numpy as np
import pytest

from repro.circuits import Circuit, draw
from repro.circuits.circuit import Gate
from repro.linalg import rz, trace_distance
from repro.synthesis.gridsynth import gridsynth_rz, rz_distance


class TestGateDagger:
    @pytest.mark.parametrize(
        "name", ["i", "h", "s", "sdg", "t", "tdg", "x", "y", "z",
                 "cx", "cz", "swap"]
    )
    def test_fixed_gates(self, name):
        qubits = (0,) if name not in ("cx", "cz", "swap") else (0, 1)
        g = Gate(name, qubits)
        prod = g.matrix() @ g.dagger().matrix()
        assert np.allclose(prod, np.eye(prod.shape[0]))

    @pytest.mark.parametrize("name", ["rx", "ry", "rz"])
    def test_rotations(self, name):
        g = Gate(name, (0,), (0.731,))
        prod = g.matrix() @ g.dagger().matrix()
        assert np.allclose(prod, np.eye(2))

    def test_u3(self):
        g = Gate("u3", (0,), (0.3, 0.5, 0.7))
        prod = g.matrix() @ g.dagger().matrix()
        # u3 inverse holds up to global phase.
        assert trace_distance(prod, np.eye(2)) < 1e-7


class TestDiskCache:
    def test_table_save_load_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.enumeration import clifford_t

        fresh = clifford_t.build_table(3)
        path = clifford_t._cache_path(3)
        clifford_t._save_table(fresh, path)
        loaded = clifford_t._load_table(path, 3)
        assert loaded is not None
        assert len(loaded) == len(fresh)
        assert np.array_equal(loaded.t_counts, fresh.t_counts)
        for i in (0, 50, 500):
            assert loaded.sequence(i) == fresh.sequence(i)
        # The persisted keys come back identically.
        assert loaded.keys.dtype == fresh.keys.dtype
        assert np.array_equal(loaded.keys, fresh.keys)

    def test_load_rejects_wrong_budget(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.enumeration import clifford_t

        fresh = clifford_t.build_table(2)
        path = str(tmp_path / "t.npz")
        clifford_t._save_table(fresh, path)
        assert clifford_t._load_table(path, 5) is None

    @staticmethod
    def _assert_miss_then_rebuild(clifford_t, path, budget, monkeypatch):
        with pytest.warns(UserWarning, match=re.escape(path)):
            assert clifford_t._load_table(path, budget) is None
        monkeypatch.setattr(clifford_t, "_TABLE_CACHE", {})
        with pytest.warns(UserWarning, match=re.escape(path)):
            rebuilt = clifford_t.get_table(budget)
        assert len(rebuilt) == clifford_t.expected_unique_count(budget)
        # The rebuild overwrote the damaged file with a readable one.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reloaded = clifford_t._load_table(path, budget)
        assert np.array_equal(reloaded.keys, rebuilt.keys)

    def test_truncated_file_is_a_miss(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.enumeration import clifford_t

        path = clifford_t._cache_path(3)
        clifford_t._save_table(clifford_t.build_table(3), path)
        with open(path, "rb") as fh:
            head = fh.read(3000)
        with open(path, "wb") as fh:
            fh.write(head)
        self._assert_miss_then_rebuild(clifford_t, path, 3, monkeypatch)

    def test_file_missing_parents_is_a_miss(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.enumeration import clifford_t

        path = clifford_t._cache_path(3)
        t = clifford_t.build_table(3)
        with open(path, "wb") as fh:
            np.savez_compressed(
                fh, budget=3, coeffs=t.coeffs, karr=t.karr,
                t_counts=t.t_counts, hs_costs=t.hs_costs, prefixes=t.prefixes,
                keys=t.keys,
            )
        self._assert_miss_then_rebuild(clifford_t, path, 3, monkeypatch)

    def test_file_with_wrong_row_count_is_a_miss(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.enumeration import clifford_t

        path = clifford_t._cache_path(3)
        # A budget-2 table filed under budget 3 has too few rows.
        t = clifford_t.build_table(2)
        with open(path, "wb") as fh:
            np.savez_compressed(
                fh, budget=3, coeffs=t.coeffs, karr=t.karr,
                t_counts=t.t_counts, hs_costs=t.hs_costs,
                parents=t.parents, prefixes=t.prefixes, keys=t.keys,
            )
        self._assert_miss_then_rebuild(clifford_t, path, 3, monkeypatch)

    @staticmethod
    def _save_with_keys(path, t, keys):
        with open(path, "wb") as fh:
            arrays = dict(
                budget=t.budget, coeffs=t.coeffs, karr=t.karr,
                t_counts=t.t_counts, hs_costs=t.hs_costs,
                parents=t.parents, prefixes=t.prefixes,
            )
            if keys is not None:
                arrays["keys"] = keys
            np.savez_compressed(fh, **arrays)

    def test_file_missing_keys_is_a_miss(self, tmp_path, monkeypatch):
        # A file of the old layout: no persisted keys.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.enumeration import clifford_t

        path = clifford_t._cache_path(3)
        self._save_with_keys(path, clifford_t.build_table(3), None)
        self._assert_miss_then_rebuild(clifford_t, path, 3, monkeypatch)

    @pytest.mark.parametrize("dtype", ["S64", "S66", "V65"])
    def test_file_with_wrong_key_dtype_is_a_miss(self, tmp_path, monkeypatch,
                                                 dtype):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.enumeration import clifford_t

        path = clifford_t._cache_path(3)
        t = clifford_t.build_table(3)
        self._save_with_keys(path, t, t.keys.astype(dtype))
        self._assert_miss_then_rebuild(clifford_t, path, 3, monkeypatch)

    def test_file_with_two_dimensional_keys_is_a_miss(self, tmp_path,
                                                      monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.enumeration import clifford_t

        path = clifford_t._cache_path(3)
        t = clifford_t.build_table(3)
        keys = t.keys.view(np.uint8).reshape(len(t), 65)
        self._save_with_keys(path, t, keys)
        self._assert_miss_then_rebuild(clifford_t, path, 3, monkeypatch)


class TestGridsynthAngles:
    def test_negative_angle(self):
        seq = gridsynth_rz(-1.1, 0.05)
        assert trace_distance(rz(-1.1), seq.matrix()) <= 0.05 + 1e-9

    def test_large_angle_wraps(self):
        theta = 1.3 + 8 * math.pi
        seq = gridsynth_rz(theta, 0.05)
        assert trace_distance(rz(theta), seq.matrix()) <= 0.05 + 1e-7

    def test_rz_distance_symmetry(self):
        assert rz_distance(0.3, 0.8) == pytest.approx(rz_distance(0.8, 0.3))
        assert rz_distance(0.5, 0.5) == 0.0

    def test_two_pi_is_trivial(self):
        seq = gridsynth_rz(2 * math.pi, 0.01)
        assert seq.t_count <= 1


class TestDrawingEdges:
    def test_distant_cx_has_connector(self):
        art = draw(Circuit(3).cx(0, 2))
        lines = art.splitlines()
        assert "●" in lines[0] and "⊕" in lines[2]
        assert "│" in lines[1]

    def test_column_packing(self):
        # Parallel gates share a column; overlapping gates do not.
        narrow = draw(Circuit(2).h(0).h(1))
        wide = draw(Circuit(2).h(0).h(0))
        assert len(narrow.splitlines()[0]) < len(wide.splitlines()[0]) or (
            "[H]" in narrow
        )

    def test_empty_circuit(self):
        art = draw(Circuit(2))
        assert art.count("\n") == 1
