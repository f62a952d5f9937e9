"""Edge-case coverage: daggers, caching, angle normalization, drawing."""

import dataclasses
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

        names = [f.name for f in dataclasses.fields(clifford_t.UnitaryTable)]
        for budget in (3, 5):
            fresh = clifford_t.build_table(budget)
            path = clifford_t._cache_path(budget)
            assert path.endswith(f"clifford_t_table_v3_b{budget}.npz")
            clifford_t._save_table(fresh, path)
            with np.load(path) as data:
                # Stored narrow and uncompressed, with the key order.
                assert data["coeffs"].dtype == np.int8
                assert all(info.compress_type == 0
                           for info in data.zip.infolist())
                assert np.array_equal(data["key_order"],
                                      np.argsort(fresh.keys))
            loaded = clifford_t._load_table(path, budget)
            assert loaded is not None
            arrays = [n for n in names
                      if isinstance(getattr(fresh, n), np.ndarray)]
            assert {"mats", "keys", "key_order"} <= set(arrays)
            # Every array comes back in the fresh build's dtype and bytes.
            for name in arrays:
                want, got = getattr(fresh, name), getattr(loaded, name)
                assert got.dtype == want.dtype, name
                assert got.shape == want.shape, name
                assert got.tobytes() == want.tobytes(), name
            for i in (0, 50, 500):
                assert loaded.sequence(i) == fresh.sequence(i)

    @pytest.mark.parametrize("value, dtype", [
        (127, np.int8), (128, np.int16), (-129, np.int16),
        (2**31, np.int64), (-(2**31) - 1, np.int64),
    ])
    def test_narrowest_dtype_keeps_values_exact(self, value, dtype):
        from repro.enumeration import clifford_t

        arr = np.array([0, value], dtype=np.int64)
        narrow = clifford_t._narrowest(arr)
        assert narrow.dtype == dtype
        assert np.array_equal(narrow.astype(np.int64), arr)

    def test_load_rejects_wrong_budget(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.enumeration import clifford_t

        fresh = clifford_t.build_table(2)
        path = str(tmp_path / "t.npz")
        clifford_t._save_table(fresh, path)
        assert clifford_t._load_table(path, 5) is None

    @staticmethod
    def _assert_miss_then_rebuild(clifford_t, path, budget, monkeypatch,
                                  reason=""):
        with pytest.warns(UserWarning,
                          match=re.escape(path) + ".*" + reason):
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
        assert np.array_equal(reloaded.key_order, rebuilt.key_order)

    @staticmethod
    def _save_v3(path, t, **overrides):
        """Write ``t`` in the cache file's layout, arrays overridden.

        An override of ``None`` leaves that array out of the file.
        """
        from repro.enumeration import clifford_t

        arrays = dict(
            budget=t.budget, keys=t.keys,
            **{name: clifford_t._narrowest(getattr(t, name))
               for name in clifford_t._INT_ARRAYS},
        )
        arrays.update(overrides)
        with open(path, "wb") as fh:
            np.savez(fh, **{k: v for k, v in arrays.items() if v is not None})

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
        self._save_v3(path, clifford_t.build_table(3), parents=None)
        self._assert_miss_then_rebuild(clifford_t, path, 3, monkeypatch,
                                       reason="KeyError.*parents")

    def test_file_with_wrong_row_count_is_a_miss(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.enumeration import clifford_t

        path = clifford_t._cache_path(3)
        # A budget-2 table filed under budget 3 has too few rows.
        self._save_v3(path, clifford_t.build_table(2), budget=3)
        self._assert_miss_then_rebuild(clifford_t, path, 3, monkeypatch,
                                       reason="coeffs has shape")

    def test_file_missing_keys_is_a_miss(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.enumeration import clifford_t

        path = clifford_t._cache_path(3)
        self._save_v3(path, clifford_t.build_table(3), keys=None)
        self._assert_miss_then_rebuild(clifford_t, path, 3, monkeypatch,
                                       reason="KeyError.*keys")

    @pytest.mark.parametrize("dtype", ["S64", "S66", "V65"])
    def test_file_with_wrong_key_dtype_is_a_miss(self, tmp_path, monkeypatch,
                                                 dtype):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.enumeration import clifford_t

        path = clifford_t._cache_path(3)
        t = clifford_t.build_table(3)
        self._save_v3(path, t, keys=t.keys.astype(dtype))
        self._assert_miss_then_rebuild(clifford_t, path, 3, monkeypatch,
                                       reason=f"keys are .{dtype}")

    def test_file_with_two_dimensional_keys_is_a_miss(self, tmp_path,
                                                      monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.enumeration import clifford_t

        path = clifford_t._cache_path(3)
        t = clifford_t.build_table(3)
        keys = t.keys.view(np.uint8).reshape(len(t), 65)
        self._save_v3(path, t, keys=keys)
        self._assert_miss_then_rebuild(clifford_t, path, 3, monkeypatch,
                                       reason=r"keys are uint8\(528, 65\)")

    @pytest.mark.parametrize("corrupt, reason", [
        pytest.param(lambda order: None, "KeyError.*key_order", id="missing"),
        pytest.param(lambda order: order[:-1], "key_order has shape",
                     id="short"),
        pytest.param(lambda order: order.astype(float),
                     "key_order has dtype float64", id="float"),
        pytest.param(lambda order: np.where(order == 0, -1, order),
                     "indexes outside", id="negative"),
        pytest.param(lambda order: np.where(order == 0, len(order), order),
                     "indexes outside", id="past_end"),
        pytest.param(lambda order: np.r_[order[:-1], order[-2]],
                     "does not sort", id="repeated"),
        pytest.param(lambda order: np.r_[order[1], order[0], order[2:]],
                     "does not sort", id="unsorted_permutation"),
    ])
    def test_file_with_bad_key_order_is_a_miss(self, tmp_path, monkeypatch,
                                               corrupt, reason):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.enumeration import clifford_t

        path = clifford_t._cache_path(3)
        t = clifford_t.build_table(3)
        self._save_v3(path, t, key_order=corrupt(t.key_order))
        self._assert_miss_then_rebuild(clifford_t, path, 3, monkeypatch,
                                       reason=reason)

    def test_v2_file_is_ignored_and_kept(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.enumeration import clifford_t

        t = clifford_t.build_table(3)
        old = tmp_path / "clifford_t_table_v2_b3.npz"
        with open(old, "wb") as fh:  # the former layout: no key order
            np.savez_compressed(
                fh, budget=3, coeffs=t.coeffs, karr=t.karr,
                t_counts=t.t_counts, hs_costs=t.hs_costs,
                parents=t.parents, prefixes=t.prefixes, keys=t.keys,
            )
        before = (old.read_bytes(), old.stat().st_mtime_ns)
        monkeypatch.setattr(clifford_t, "_TABLE_CACHE", {})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = clifford_t.get_table(3)
        assert np.array_equal(table.keys, t.keys)
        assert (old.read_bytes(), old.stat().st_mtime_ns) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "clifford_t_table_v2_b3.npz", "clifford_t_table_v3_b3.npz",
        ]


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
