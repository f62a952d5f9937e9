"""Cross-process synthesis store: banding, segments, crash consistency,
concurrent writers, the warm precompiler, and process-pool determinism."""

import json
import os

import pytest

from repro.circuits import Circuit
from repro.circuits.qasm import to_qasm
from repro.pipeline import (
    DiskSynthesisStore,
    SynthesisCache,
    band_eps,
    bucket_eps,
    compile_batch,
    eps_band,
    key_rz,
    stricter_keys,
)
from repro.pipeline.store import segments as seg
from repro.pipeline.warm import (
    catalog_angles,
    catalog_keys,
    parse_workers_arg,
    warm_rz_catalog,
)
from repro.synthesis.sequences import GateSequence


def _seq(t: int = 1, error: float = 0.001) -> GateSequence:
    return GateSequence(gates=("H",) + ("T",) * t + ("H",), error=error)


class TestEpsBanding:
    def test_decades_sit_on_band_edges(self):
        for eps in (1e-1, 1e-2, 1e-3, 1e-4):
            assert bucket_eps(eps) == pytest.approx(eps, rel=1e-12)

    def test_band_roundtrip_exact(self):
        for band in range(1, 40):
            assert eps_band(band_eps(band)) == band

    def test_bucketing_only_tightens(self):
        # The band floor is <= the request, so synthesizing at the
        # floor always satisfies the caller.
        for eps in (0.007, 0.012, 0.0301, 0.15, 0.9, 2e-4):
            assert bucket_eps(eps) <= eps
            assert bucket_eps(bucket_eps(eps)) == bucket_eps(eps)

    def test_same_band_shares_a_key(self):
        # 0.012 and 0.015 both land in band 8 (floor 0.01) -> the
        # decade edge and both nearby requests share one key.
        assert key_rz(0.5, 0.012) == key_rz(0.5, 0.015)
        assert key_rz(0.5, 0.012) == key_rz(0.5, 0.01)
        # A request one band looser does not.
        assert key_rz(0.5, 0.01) != key_rz(0.5, 0.02)

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            eps_band(0.0)
        with pytest.raises(ValueError):
            bucket_eps(-1e-3)

    def test_stricter_keys_strictly_tighten(self):
        key = key_rz(0.5, 1e-2)
        probes = stricter_keys(key, 5)
        assert len(probes) == 5
        eps_values = [k[-1] for k in probes]
        assert all(e < key[-1] for e in eps_values)
        assert eps_values == sorted(eps_values, reverse=True)
        assert all(k[:-1] == key[:-1] for k in probes)


class TestFallbackDirection:
    """Regression for the exact-float eps keys: a stricter cached entry
    satisfies a looser request, and never the reverse."""

    def test_stricter_entry_satisfies_looser_request(self, tmp_path):
        store = DiskSynthesisStore(tmp_path)
        strict_key = key_rz(0.5, 0.05)  # band floor 0.0316...
        store.put(strict_key, _seq(error=0.01))
        store.flush()
        store.refresh()
        loose_key = key_rz(0.5, 0.09)  # looser band than 0.05's
        assert loose_key != strict_key
        assert store.get(loose_key) is None
        hit = store.get_fallback(loose_key)
        assert hit is not None
        # The reused word's threshold is at least as strict as the
        # looser request's band floor.
        assert strict_key[-1] <= loose_key[-1]

    def test_looser_entry_never_satisfies_stricter_request(self, tmp_path):
        store = DiskSynthesisStore(tmp_path)
        store.put(key_rz(0.5, 0.05), _seq(error=0.03))
        store.flush()
        store.refresh()
        stricter = key_rz(0.5, 0.01)
        assert store.get(stricter) is None
        assert store.get_fallback(stricter) is None

    def test_nearest_stricter_band_wins(self, tmp_path):
        store = DiskSynthesisStore(tmp_path)
        near = _seq(t=2, error=0.02)
        far = _seq(t=9, error=0.0001)
        store.put(key_rz(0.5, 0.05), near)   # one band below 0.09's
        store.put(key_rz(0.5, 0.001), far)   # several bands below
        store.flush()
        store.refresh()
        hit = store.get_fallback(key_rz(0.5, 0.09))
        assert hit is not None and hit.gates == near.gates


class TestSegments:
    def test_roundtrip(self, tmp_path):
        root = str(tmp_path)
        key = key_rz(0.7, 1e-2)
        entries = [seg.entry_dict(key, _seq(t=3, error=0.004))]
        name = seg.write_segment(root, 5, entries)
        assert seg.shard_of_segment(name) == 5
        back = seg.read_segment(root, name)
        assert back == entries
        restored = seg.entry_sequence(back[0])
        assert restored.gates == ("H", "T", "T", "T", "H")
        assert restored.error == 0.004

    def test_key_str_roundtrips(self):
        # Store lookups rebuild each key from its JSON list, so the
        # canonical form must carry every float exactly.
        key = key_rz(0.123456789, 0.007)
        assert tuple(json.loads(seg.key_str(key))) == key

    def test_content_addressed_names_are_deterministic(self, tmp_path):
        entries = [seg.entry_dict(key_rz(0.7, 1e-2), _seq())]
        a = seg.write_segment(str(tmp_path), 3, entries)
        b = seg.write_segment(str(tmp_path), 3, entries)
        assert a == b
        assert len(seg.list_segments(str(tmp_path))) == 1

    def test_truncated_segment_skipped_with_warning(self, tmp_path):
        root = str(tmp_path)
        name = seg.write_segment(
            root, 0, [seg.entry_dict(key_rz(0.7, 1e-2), _seq())]
        )
        path = os.path.join(root, seg.SEGMENT_DIR, name)
        data = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(data[: len(data) // 2])  # simulated partial copy
        with pytest.warns(UserWarning, match="skipping unreadable segment"):
            assert seg.read_segment(root, name) is None

    def test_wrong_format_segment_skipped(self, tmp_path):
        root = str(tmp_path)
        os.makedirs(os.path.join(root, seg.SEGMENT_DIR))
        path = os.path.join(root, seg.SEGMENT_DIR, "seg-00-deadbeef0000.json")
        with open(path, "w") as fh:
            json.dump({"format": "other/v9", "entries": []}, fh)
        with pytest.warns(UserWarning):
            assert seg.read_segment(root, "seg-00-deadbeef0000.json") is None


class TestDiskStore:
    def test_put_invisible_until_flush_and_refresh(self, tmp_path):
        store = DiskSynthesisStore(tmp_path)
        key = key_rz(0.5, 1e-2)
        store.put(key, _seq())
        # Snapshot semantics: the instance's own pending write is not
        # served, so results never depend on write interleaving.
        assert store.get(key) is None
        assert store.stats().pending == 1
        names = store.flush()
        assert len(names) == 1
        assert store.get(key) is None  # snapshot unchanged by flush
        store.refresh()
        assert store.get(key) is not None
        assert key in store

    def test_second_process_sees_published_entries(self, tmp_path):
        writer = DiskSynthesisStore(tmp_path)
        key = key_rz(1.5, 1e-3)
        writer.put(key, _seq(t=4))
        writer.flush()
        reader = DiskSynthesisStore(tmp_path)
        hit = reader.get(key)
        assert hit is not None and hit.t_count == 4

    def test_concurrent_identical_writers_converge(self, tmp_path):
        a = DiskSynthesisStore(tmp_path)
        b = DiskSynthesisStore(tmp_path)
        key = key_rz(0.5, 1e-2)
        a.put(key, _seq(t=2, error=0.003))
        b.put(key, _seq(t=2, error=0.003))
        names_a = a.flush()
        names_b = b.flush()
        # Content addressing: the same result maps to the same file, so
        # the second publish is a harmless same-bytes replace.
        assert names_a == names_b
        assert len(seg.list_segments(str(tmp_path))) == 1

    def test_concurrent_distinct_writers_union(self, tmp_path):
        a = DiskSynthesisStore(tmp_path)
        b = DiskSynthesisStore(tmp_path)
        ka, kb = key_rz(0.4, 1e-2), key_rz(0.9, 1e-2)
        a.put(ka, _seq(t=1))
        b.put(kb, _seq(t=2))
        a.flush()
        b.flush()
        fresh = DiskSynthesisStore(tmp_path)
        assert fresh.get(ka) is not None
        assert fresh.get(kb) is not None
        assert len(fresh) == 2

    def test_corrupt_segment_degrades_to_miss(self, tmp_path):
        store = DiskSynthesisStore(tmp_path)
        ka, kb = key_rz(0.4, 1e-2), key_rz(0.9, 1e-2)
        store.put(ka, _seq())
        store.flush()
        store.put(kb, _seq())
        store.flush()
        names = seg.list_segments(str(tmp_path))
        victim = os.path.join(str(tmp_path), seg.SEGMENT_DIR, names[0])
        with open(victim, "w") as fh:
            fh.write('{"format": "repro-segstore/v1", "entr')  # truncated
        fresh = DiskSynthesisStore(tmp_path)
        with pytest.warns(UserWarning, match="skipping unreadable segment"):
            found = [k for k in (ka, kb) if fresh.get(k) is not None]
        assert len(found) == 1  # the intact segment still serves
        assert fresh.stats().skipped_segments == 1

    def test_listing_is_the_only_index(self, tmp_path):
        # Older versions also kept an index.json naming the segments
        # and the shard count.  Readers ignore it, even when it names a
        # vanished segment and another shard count, and no store
        # writes one.
        writer = DiskSynthesisStore(tmp_path)
        keys = [key_rz(0.1 * (i + 1), 1e-2) for i in range(12)]
        for i, key in enumerate(keys):
            writer.put(key, _seq(t=i % 5 + 1))
        writer.flush()
        assert os.listdir(tmp_path) == [seg.SEGMENT_DIR]
        listed = seg.list_segments(str(tmp_path))
        index = tmp_path / "index.json"
        index.write_text(json.dumps({
            "format": seg.FORMAT_VERSION,
            "n_shards": 4,
            "segments": listed + ["seg-07-000000000000.json"],
        }))
        fresh = DiskSynthesisStore(tmp_path)
        assert fresh.stats().n_segments == len(listed)
        for i, key in enumerate(keys):
            assert fresh.get(key).t_count == i % 5 + 1
        assert len(fresh) == len(keys)
        assert fresh.stats().skipped_segments == 0
        index.unlink()
        assert len(DiskSynthesisStore(tmp_path)) == len(keys)
        # A process-pool batch publishes segments and nothing else.
        batch_dir = tmp_path / "batch"
        DiskSynthesisStore(batch_dir)
        compile_batch(_batch_circuits(4), workflow="gridsynth", eps=0.05,
                      workers=2, cache_dir=str(batch_dir),
                      optimization_level=1)
        assert os.listdir(batch_dir) == [seg.SEGMENT_DIR]
        assert seg.list_segments(str(batch_dir))

    def test_lazy_shard_loading(self, tmp_path):
        store = DiskSynthesisStore(tmp_path)
        for i in range(12):
            store.put(key_rz(0.1 * (i + 1), 1e-2), _seq())
        store.flush()
        fresh = DiskSynthesisStore(tmp_path)
        assert fresh.stats().loaded_shards == 0
        fresh.get(key_rz(0.1, 1e-2))
        assert fresh.stats().loaded_shards == 1


class TestTieredCache:
    def test_l2_hit_promotes_to_l1(self, tmp_path):
        store = DiskSynthesisStore(tmp_path)
        key = key_rz(0.5, 1e-2)
        store.put(key, _seq(t=3))
        store.flush()
        store.refresh()
        cache = SynthesisCache(store=store)

        def boom():
            raise AssertionError("L2 should have served this")

        seq = cache.get_or(key, boom)
        assert seq.t_count == 3
        stats = cache.stats()
        assert stats.store_attached
        assert (stats.l2_hits, stats.l2_misses) == (1, 0)
        assert stats.computes == 0
        # Promoted: the next lookup is a pure L1 hit.
        assert cache.get_or(key, boom).t_count == 3
        assert cache.stats().l2_hits == 1

    def test_fallback_hit_promoted_under_requested_key(self, tmp_path):
        store = DiskSynthesisStore(tmp_path)
        store.put(key_rz(0.5, 0.05), _seq(t=5, error=0.01))
        store.flush()
        store.refresh()
        cache = SynthesisCache(store=store)
        loose = key_rz(0.5, 0.09)
        seq = cache.get_or(loose, lambda: pytest.fail("should fall back"))
        assert seq.t_count == 5
        assert cache.stats().l2_fallback_hits == 1
        assert loose in cache

    def test_l2_miss_computes_and_writes_through(self, tmp_path):
        store = DiskSynthesisStore(tmp_path)
        cache = SynthesisCache(store=store)
        key = key_rz(0.5, 1e-2)
        cache.get_or(key, lambda: _seq(t=2))
        stats = cache.stats()
        assert (stats.l2_hits, stats.l2_misses) == (0, 1)
        assert stats.computes == 1
        assert store.stats().pending == 1
        store.flush()
        other = DiskSynthesisStore(tmp_path)
        assert other.get(key) is not None

    def test_attach_store_once(self, tmp_path):
        cache = SynthesisCache()
        store = DiskSynthesisStore(tmp_path / "a")
        cache.attach_store(store)
        cache.attach_store(store)  # same store: idempotent
        with pytest.raises(ValueError):
            cache.attach_store(DiskSynthesisStore(tmp_path / "b"))

    def test_absorb_counts(self):
        cache = SynthesisCache()
        cache.absorb_counts(hits=3, misses=2, l2_hits=1, l2_misses=1)
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (3, 2)
        assert (stats.l2_hits, stats.l2_misses) == (1, 1)


def _batch_circuits(n: int = 6) -> list[Circuit]:
    circuits = []
    for i in range(n):
        c = Circuit(2, name=f"case{i}")
        c.h(0)
        c.rz(0.3 + 0.1 * (i % 3), 0)
        c.cx(0, 1)
        c.rz(0.3, 1)
        c.rx(0.5, 0)
        c.h(1)
        circuits.append(c)
    return circuits


class TestProcessPoolIdentity:
    """Property: process-pool and disk-cached results are byte-identical
    to serial compilation."""

    @pytest.mark.parametrize("workflow,eps", [("gridsynth", 0.02),
                                              ("trasyn", 0.15)])
    def test_process_pool_matches_serial(self, workflow, eps, tmp_path):
        circuits = _batch_circuits(6)
        serial = compile_batch(circuits, workflow=workflow, eps=eps,
                               max_workers=1, optimization_level=1)
        pooled = compile_batch(circuits, workflow=workflow, eps=eps,
                               workers=2, cache_dir=str(tmp_path),
                               optimization_level=1)
        assert len(serial) == len(pooled) == 6
        for s, p in zip(serial, pooled):
            assert to_qasm(s.circuit) == to_qasm(p.circuit)
            assert s.total_synthesis_error == p.total_synthesis_error

    def test_disk_cached_rerun_matches_serial(self, tmp_path):
        circuits = _batch_circuits(6)
        serial = compile_batch(circuits, workflow="gridsynth", eps=0.02,
                               max_workers=1, optimization_level=1)
        # First run populates the store; the rerun opens it cold and
        # must serve everything from segments, byte-identically.
        compile_batch(circuits, workflow="gridsynth", eps=0.02,
                      cache_dir=str(tmp_path), optimization_level=1)
        cache = SynthesisCache(store=DiskSynthesisStore(tmp_path))
        rerun = compile_batch(circuits, workflow="gridsynth", eps=0.02,
                              cache=cache, optimization_level=1)
        stats = cache.stats()
        assert stats.l2_misses == 0
        assert stats.l2_hits > 0
        assert stats.computes == 0
        for s, r in zip(serial, rerun):
            assert to_qasm(s.circuit) == to_qasm(r.circuit)

    def test_process_pool_without_store_matches_serial(self, tmp_path):
        circuits = _batch_circuits(4)
        serial = compile_batch(circuits, workflow="gridsynth", eps=0.05,
                               max_workers=1, optimization_level=1)
        pooled = compile_batch(circuits, workflow="gridsynth", eps=0.05,
                               workers=2, optimization_level=1)
        for s, p in zip(serial, pooled):
            assert to_qasm(s.circuit) == to_qasm(p.circuit)

    def test_pool_stats_absorbed_into_parent_cache(self, tmp_path):
        circuits = _batch_circuits(4)
        cache = SynthesisCache()
        compile_batch(circuits, workflow="gridsynth", eps=0.05,
                      cache=cache, workers=2, cache_dir=str(tmp_path),
                      optimization_level=1)
        stats = cache.stats()
        assert stats.l2_misses > 0  # cold store: someone synthesized
        # The published segments are visible to a fresh open.
        assert len(DiskSynthesisStore(tmp_path)) > 0


class TestWarmPrecompiler:
    def test_catalog_drops_trivial_angles(self):
        angles = catalog_angles(8)
        # 8 points on the circle are all pi/4 multiples.
        assert angles == []
        angles = catalog_angles(12)
        assert len(angles) == 8  # 12 minus four pi/4 multiples
        assert all(a > 0 for a in angles)

    def test_catalog_keys_deduplicate(self):
        keys = catalog_keys(12, (0.05, 0.051))  # same band twice
        assert len(keys) == len(catalog_angles(12))

    def test_warm_then_resume(self, tmp_path):
        report = warm_rz_catalog(tmp_path, n_angles=12,
                                 eps_grid=(0.05,), workers=1)
        assert report.computed == 8
        assert report.skipped == 0
        assert report.segments >= 1
        again = warm_rz_catalog(tmp_path, n_angles=12,
                                eps_grid=(0.05,), workers=1)
        assert again.computed == 0
        assert again.skipped == 8

    def test_warmed_store_serves_compiles(self, tmp_path):
        warm_rz_catalog(tmp_path, n_angles=12, eps_grid=(0.05,), workers=1)
        theta = catalog_angles(12)[0]
        c = Circuit(1, name="warm")
        c.rz(theta, 0)
        cache = SynthesisCache(store=DiskSynthesisStore(tmp_path))
        compile_batch([c], workflow="gridsynth", eps=0.05, cache=cache,
                      optimization_level=0)
        stats = cache.stats()
        assert stats.l2_hits == 1
        assert stats.computes == 0

    def test_cli_entry_point(self, tmp_path, capsys):
        from repro.pipeline.warm import main

        rc = main(["--cache-dir", str(tmp_path / "wc"),
                   "--angles", "12", "--eps", "0.05", "--workers", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "warmed 8 of 8" in out
        assert "store now holds 8 entries" in out

    def test_parse_workers_arg(self):
        assert parse_workers_arg("auto") == "process"
        assert parse_workers_arg("4") == 4
        with pytest.raises(SystemExit):
            parse_workers_arg("many")

    def test_rejects_bad_grid(self, tmp_path):
        with pytest.raises(ValueError):
            warm_rz_catalog(tmp_path, n_angles=0)
        with pytest.raises(ValueError):
            warm_rz_catalog(tmp_path, n_angles=12, workers=0)
