"""SynthesisCache correctness: determinism, persistence, concurrency."""

import threading
import time

import numpy as np
import pytest

from repro.circuits import Circuit
from repro.circuits.qasm import to_qasm
from repro.pipeline import (
    DiskSynthesisStore,
    SynthesisCache,
    compile_batch,
    compile_circuit,
    key_rz,
    key_u3,
    rng_for_key,
)
from repro.synthesis.sequences import GateSequence


def _batch_circuits(n: int = 8) -> list[Circuit]:
    """Small circuits with heavily overlapping rotation angles."""
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


class TestCacheBasics:
    def test_get_or_and_stats(self):
        cache = SynthesisCache()
        seq = GateSequence(gates=("H", "T"), error=0.1)
        calls = []

        def compute():
            calls.append(1)
            return seq

        key = key_rz(0.5, 0.01)
        assert cache.get_or(key, compute) is seq
        assert cache.get_or(key, compute) is seq
        assert len(calls) == 1
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.size) == (1, 1, 1)

    def test_key_rounding_merges_near_identical_angles(self):
        assert key_rz(0.5, 0.01) == key_rz(0.5 + 1e-14, 0.01)
        assert key_rz(0.5, 0.01) != key_rz(0.5, 0.02)
        assert key_u3(0.1, 0.2, 0.3, 0.01) != key_u3(0.1, 0.2, 0.4, 0.01)

    def test_lru_eviction_bounds_size(self):
        cache = SynthesisCache(maxsize=4)
        for i in range(10):
            cache.put(key_rz(float(i), 0.01),
                      GateSequence(gates=("T",), error=0.0))
        assert len(cache) == 4
        # Oldest keys evicted, newest retained.
        assert key_rz(9.0, 0.01) in cache
        assert key_rz(0.0, 0.01) not in cache

    def test_put_if_absent_keeps_first_value(self):
        cache = SynthesisCache()
        first = GateSequence(gates=("T",), error=0.1)
        second = GateSequence(gates=("H",), error=0.2)
        key = key_rz(1.0, 0.01)
        assert cache.put(key, first) is first
        assert cache.put(key, second) is first

    def test_invalid_maxsize(self):
        with pytest.raises(ValueError):
            SynthesisCache(maxsize=0)

    def test_rng_for_key_is_stable_and_key_sensitive(self):
        a = rng_for_key(0, key_rz(0.5, 0.01)).integers(1 << 30)
        b = rng_for_key(0, key_rz(0.5, 0.01)).integers(1 << 30)
        c = rng_for_key(0, key_rz(0.6, 0.01)).integers(1 << 30)
        d = rng_for_key(1, key_rz(0.5, 0.01)).integers(1 << 30)
        assert a == b
        assert len({a, c, d}) == 3


class TestColdWarmDeterminism:
    @pytest.mark.parametrize("workflow,eps", [("gridsynth", 0.02),
                                              ("trasyn", 0.15)])
    def test_cold_vs_warm_identical(self, workflow, eps):
        c = _batch_circuits(1)[0]
        cache = SynthesisCache()
        cold = compile_circuit(c, workflow=workflow, eps=eps, cache=cache)
        assert cache.stats().misses > 0
        warm = compile_circuit(c, workflow=workflow, eps=eps, cache=cache)
        assert to_qasm(cold.circuit) == to_qasm(warm.circuit)
        assert cold.total_synthesis_error == warm.total_synthesis_error
        assert cold.n_rotations == warm.n_rotations

    def test_disk_round_trip_preserves_results(self, tmp_path):
        c = _batch_circuits(1)[0]
        cache = SynthesisCache(store=DiskSynthesisStore(tmp_path))
        cold = compile_circuit(c, workflow="gridsynth", eps=0.02, cache=cache)
        cache.store.flush()

        loaded = SynthesisCache(store=DiskSynthesisStore(tmp_path))
        assert len(loaded.store) == len(cache)
        warm = compile_circuit(c, workflow="gridsynth", eps=0.02, cache=loaded)
        assert to_qasm(cold.circuit) == to_qasm(warm.circuit)
        assert cold.total_synthesis_error == warm.total_synthesis_error
        # Every rotation came from the store: no synthesis ran.
        stats = loaded.stats()
        assert stats.l2_misses == 0
        assert stats.l2_hits > 0

    def test_failed_save_leaves_previous_cache_intact(
        self, tmp_path, monkeypatch
    ):
        import os

        c = _batch_circuits(1)[0]
        cache = SynthesisCache(store=DiskSynthesisStore(tmp_path))
        compile_circuit(c, workflow="gridsynth", eps=0.02, cache=cache)
        cache.store.flush()

        def snapshot():
            return {
                p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()
            }

        before = snapshot()
        cache.get_or(
            key_rz(1.234, 0.02), lambda: GateSequence(("H", "T", "H"), 0.01)
        )

        def boom(src, dst):
            raise OSError("no space left on device")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            cache.store.flush()
        monkeypatch.undo()
        # Published segments and the index are byte-identical and still
        # load; no temp files were left behind.
        assert snapshot() == before
        assert len(DiskSynthesisStore(tmp_path)) == len(cache) - 1


class TestBatchMatchesSerial:
    @pytest.mark.parametrize("workflow,eps", [("gridsynth", 0.02),
                                              ("trasyn", 0.15)])
    def test_concurrent_equals_serial(self, workflow, eps):
        circuits = _batch_circuits(8)
        serial = compile_batch(circuits, workflow=workflow, eps=eps,
                               max_workers=1)
        parallel = compile_batch(circuits, workflow=workflow, eps=eps,
                                 max_workers=4)
        assert len(serial) == len(parallel) == 8
        for s, p in zip(serial, parallel):
            assert to_qasm(s.circuit) == to_qasm(p.circuit)
            assert s.total_synthesis_error == p.total_synthesis_error

    def test_shared_cache_is_warm_across_batches(self):
        circuits = _batch_circuits(8)
        cache = SynthesisCache()
        compile_batch(circuits, workflow="gridsynth", eps=0.02, cache=cache)
        before = cache.stats()
        second = compile_batch(circuits, workflow="gridsynth", eps=0.02,
                               cache=cache, max_workers=4)
        after = cache.stats()
        assert after.misses == before.misses  # fully warm: no new synthesis
        assert after.hits > before.hits
        assert len(second) == 8

    def test_summary_mentions_every_circuit(self):
        circuits = _batch_circuits(3)
        batch = compile_batch(circuits, workflow="gridsynth", eps=0.05)
        text = batch.summary()
        for c in circuits:
            assert c.name in text


class TestThreadSafety:
    def test_concurrent_get_or_single_canonical_value(self):
        cache = SynthesisCache()
        key = key_rz(0.75, 0.01)
        results = []
        barrier = threading.Barrier(8)

        def worker(i):
            barrier.wait()
            seq = cache.get_or(
                key, lambda: GateSequence(gates=("T",) * (i + 1), error=0.0)
            )
            results.append(seq)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len({id(r) for r in results}) == 1
        assert len(cache) == 1

    def test_cold_same_key_synthesizes_once(self):
        cache = SynthesisCache()
        key = key_rz(0.9, 0.01)
        calls = []
        barrier = threading.Barrier(6)

        def compute():
            calls.append(1)
            time.sleep(0.05)  # widen the window racers would pile into
            return GateSequence(gates=("T",), error=0.0)

        def worker():
            barrier.wait()
            cache.get_or(key, compute)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # In-flight coordination: one owner computes, the rest wait.
        assert len(calls) == 1
        assert len(cache) == 1

    def test_waiters_recover_from_failed_compute(self):
        cache = SynthesisCache()
        key = key_rz(1.5, 0.01)
        started = threading.Event()
        results = []

        def failing():
            started.set()
            time.sleep(0.05)
            raise RuntimeError("synthesis exploded")

        def owner():
            try:
                cache.get_or(key, failing)
            except RuntimeError:
                pass

        def waiter():
            started.wait()
            results.append(cache.get_or(
                key, lambda: GateSequence(gates=("H",), error=0.0)
            ))

        threads = [threading.Thread(target=owner),
                   threading.Thread(target=waiter)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results and results[0].gates == ("H",)
        assert len(cache) == 1

    def test_concurrent_distinct_keys(self):
        cache = SynthesisCache()
        rng = np.random.default_rng(0)
        angles = rng.uniform(0, 3, size=64)

        def worker(chunk):
            for theta in chunk:
                cache.get_or(
                    key_rz(float(theta), 0.01),
                    lambda: GateSequence(gates=("T",), error=0.0),
                )

        threads = [
            threading.Thread(target=worker, args=(angles[i::4],))
            for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(cache) == 64
