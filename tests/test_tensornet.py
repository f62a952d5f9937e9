"""Tests for the trace-value MPS: exactness, sampling, beam search."""

import numpy as np
import pytest

from repro.linalg import haar_random_u2
from repro.tensornet import TraceMPS


def _random_sites(rng, sizes):
    return [
        np.stack([haar_random_u2(rng) for _ in range(n)]) for n in sizes
    ]


def _brute_force(target, mats):
    shape = [m.shape[0] for m in mats]
    out = np.empty(shape, dtype=complex)
    for idx in np.ndindex(*shape):
        prod = target.conj().T
        for slot, i in enumerate(idx):
            prod = prod @ mats[slot][i]
        out[idx] = np.trace(prod)
    return out


class TestFullContraction:
    @pytest.mark.parametrize("sizes", [(3, 4), (5, 4, 6), (2, 3, 2, 3)])
    def test_matches_brute_force(self, sizes):
        rng = np.random.default_rng(42)
        target = haar_random_u2(rng)
        mats = _random_sites(rng, sizes)
        mps = TraceMPS(target, mats)
        assert np.allclose(mps.full_tensor(), _brute_force(target, mats))

    def test_rejects_single_site(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            TraceMPS(haar_random_u2(rng), _random_sites(rng, (3,)))

    def test_rejects_bad_target(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            TraceMPS(np.eye(3), _random_sites(rng, (3, 3)))


class TestSampling:
    def test_amplitudes_are_exact_trace_values(self):
        rng = np.random.default_rng(7)
        target = haar_random_u2(rng)
        mats = _random_sites(rng, (4, 5, 3))
        mps = TraceMPS(target, mats)
        brute = _brute_force(target, mats)
        choices, amps = mps.sample(64, rng)
        for c, a in zip(choices, amps):
            assert abs(brute[tuple(c)] - a) < 1e-9

    def test_distribution_matches_squared_trace(self):
        rng = np.random.default_rng(11)
        target = haar_random_u2(rng)
        mats = _random_sites(rng, (3, 3))
        mps = TraceMPS(target, mats)
        p = np.abs(_brute_force(target, mats)) ** 2
        p /= p.sum()
        counts = np.zeros_like(p)
        n = 30_000
        choices, _ = mps.sample(n, rng)
        for c in choices:
            counts[tuple(c)] += 1
        tv_dist = 0.5 * np.abs(counts / n - p).sum()
        assert tv_dist < 0.03

    def test_chunked_sampling_consistent(self):
        rng = np.random.default_rng(3)
        target = haar_random_u2(rng)
        mats = _random_sites(rng, (6, 6, 6))
        mps = TraceMPS(target, mats)
        c1, a1 = mps.sample(50, np.random.default_rng(5), chunk_size=7)
        c2, a2 = mps.sample(50, np.random.default_rng(5), chunk_size=1024)
        assert np.array_equal(c1, c2)
        assert np.allclose(a1, a2)

    def test_byte_budget_bounds_chunk_rows(self, monkeypatch):
        import repro.tensornet.mps as mps_mod

        class Recorder:
            """Generator proxy logging the size of each uniform draw."""

            def __init__(self, seed):
                self.rng = np.random.default_rng(seed)
                self.sizes = []

            def choice(self, *args, **kwargs):
                return self.rng.choice(*args, **kwargs)

            def random(self, size):
                self.sizes.append(size)
                return self.rng.random(size)

        rng = np.random.default_rng(8)
        target = haar_random_u2(rng)
        mats = _random_sites(rng, (40, 30, 20))
        mps = TraceMPS(target, mats)
        c1, a1 = mps.sample(64, np.random.default_rng(6))
        # 24 bytes per entry: 2 rows of the 30-wide site, 3 of the 20-wide.
        monkeypatch.setattr(mps_mod, "SAMPLE_CHUNK_BYTES", 24 * 60)
        rec = Recorder(6)
        c2, a2 = mps.sample(64, rec)
        assert rec.sizes == [2] * 32 + [3] * 21 + [1]
        assert np.array_equal(c1, c2)
        assert np.allclose(a1, a2)


class TestBeamSearch:
    def test_finds_global_max_small(self):
        rng = np.random.default_rng(13)
        target = haar_random_u2(rng)
        mats = _random_sites(rng, (5, 5, 5))
        mps = TraceMPS(target, mats)
        brute = np.abs(_brute_force(target, mats))
        idx, amp = mps.best_first(beam_width=125)
        assert abs(amp) == pytest.approx(brute.max(), rel=1e-9)

    def test_beam_amplitude_consistent(self):
        rng = np.random.default_rng(17)
        target = haar_random_u2(rng)
        mats = _random_sites(rng, (4, 4))
        mps = TraceMPS(target, mats)
        brute = _brute_force(target, mats)
        idx, amp = mps.best_first(beam_width=4)
        assert abs(brute[tuple(idx)] - amp) < 1e-9

    def test_rejects_nonpositive_beam_width(self):
        rng = np.random.default_rng(19)
        mps = TraceMPS(haar_random_u2(rng), _random_sites(rng, (4, 4)))
        for width in (0, -3):
            with pytest.raises(ValueError, match="beam_width"):
                mps.best_first(beam_width=width)
