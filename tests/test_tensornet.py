"""Tests for the trace-value MPS: exactness, sampling, beam search."""

import numpy as np
import pytest

import repro.tensornet.mps as mps_mod
from repro.enumeration import get_table
from repro.linalg import haar_random_u2
from repro.synthesis.sequences import matrix_of
from repro.synthesis.trasyn import slot_layout
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


def _best_first_reference(mps, beam_width=64):
    """The full-argsort beam search that ``best_first`` must reproduce."""
    first = mps.tensors[0][:, 0, :]
    weights = np.einsum("sd,sd->s", first, first.conj()).real
    order = np.argsort(weights)[::-1][:beam_width]
    beams = [((int(s),), first[s]) for s in order]
    for site in range(1, mps.n_sites):
        a = mps.tensors[site]
        candidates = []
        msgs = np.stack([m for _, m in beams])
        b = np.einsum("kl,slr->ksr", msgs, a)
        scores = np.einsum("ksr,ksr->ks", b, b.conj()).real
        flat = np.argsort(scores, axis=None)[::-1][: beam_width * 4]
        for f in flat[: beam_width * 4]:
            ki, si = np.unravel_index(f, scores.shape)
            candidates.append((beams[ki][0] + (int(si),), b[ki, si]))
            if len(candidates) >= beam_width:
                break
        beams = candidates
    best_idx, best_msg = max(beams, key=lambda t: abs(t[1][0]))
    return np.array(best_idx, dtype=np.int64), complex(best_msg[0])


def _pick_reference(scores, amps, beam_width):
    """The argsort path's last-site pick, as a flat index."""
    flat = np.argsort(scores, axis=None)[::-1][:beam_width]
    mags = [abs(amps.ravel()[f]) for f in flat]
    return int(flat[mags.index(max(mags))])


class TestLastSiteSelection:
    """The argsort-free last beam step returns the reference's exact entry."""

    def test_scalar_abs_breaks_ulp_ties_like_argsort_path(self):
        # Scalar abs orders these two z0 > z1 by one ulp; vectorized
        # np.abs may order them the other way or call them equal.
        z0 = -0.6400399491357172 + 0.4618661736925272j
        z1 = 0.7703925071038951 - 0.171659208576767j
        rng = np.random.default_rng(23)
        amps = 0.3 * (rng.random((3, 5)) + 1j * rng.random((3, 5)))
        amps[1, 2], amps[0, 4] = z0, z1
        scores = (amps * amps.conj()).real
        pick = mps_mod._last_site_pick(scores, amps, 4)
        assert pick == _pick_reference(scores, amps, 4) == 7

    def test_tie_across_cutoff_below_winner(self):
        # Ties at the cutoff leave argsort's kept set open, but the
        # winner scores above them, so it is kept either way.
        scores = np.array([[5.0, 4.0, 2.0, 2.0, 2.0, 1.0]])
        amps = np.array([[3.0, 1.5, 1.0, 1.0, 1.0, 0.0]], dtype=complex)
        pick = mps_mod._last_site_pick(scores, amps, 3)
        assert pick == _pick_reference(scores, amps, 3) == 0

    def test_tie_across_cutoff_falls_back(self):
        # Three entries tie at the cutoff score 2.0 and argsort keeps one
        # of them.  The largest amplitude sits on a tied entry argsort
        # drops, so the selection must defer to the argsort path.
        scores = np.array([[5.0, 4.0, 2.0, 2.0, 2.0, 1.0]])
        kept = np.argsort(scores, axis=None)[::-1][:3]
        dropped = next(i for i in (2, 3, 4) if i not in kept)
        amps = np.array([[1.0, 1.5, 0.5, 0.5, 0.5, 0.0]], dtype=complex)
        amps[0, dropped] = 3.0
        assert mps_mod._last_site_pick(scores, amps, 3) is None
        assert _pick_reference(scores, amps, 3) != dropped

    def test_small_slot_falls_back(self):
        scores = np.array([[3.0, 1.0], [2.0, 0.5]])
        assert mps_mod._last_site_pick(scores, scores.astype(complex), 4) is None

    LAYOUTS = ([(0, 6), (0, 4)], [(0, 6), (0, 6)], [(0, 4), (0, 4), (0, 3)])

    @pytest.fixture
    def paths(self, monkeypatch):
        """Records whether each last-site selection took the fast pick."""
        taken = []
        pick = mps_mod._last_site_pick

        def recording(*args):
            result = pick(*args)
            taken.append("fallback" if result is None else "fast")
            return result

        monkeypatch.setattr(mps_mod, "_last_site_pick", recording)
        return taken

    @staticmethod
    def _assert_same(mps):
        idx, amp = mps.best_first()
        ref_idx, ref_amp = _best_first_reference(mps)
        assert np.array_equal(idx, ref_idx)
        assert np.array(amp).tobytes() == np.array(ref_amp).tobytes()

    def test_matches_reference_on_haar_targets(self, paths):
        table = get_table(6)
        rng = np.random.default_rng(2026)
        for _ in range(16):
            target = haar_random_u2(rng)
            for ranges in self.LAYOUTS:
                self._assert_same(slot_layout(table, ranges).mps(target))
        assert len(paths) == 48
        assert "fast" in paths and "fallback" in paths

    @pytest.mark.parametrize(
        "word", [(), ("H",), ("S", "H"), ("H", "T", "H", "T", "S")]
    )
    def test_matches_reference_on_exact_targets(self, paths, word):
        # A Clifford+T target is hit exactly by many slot pairs: the top
        # scores tie, so the selection must fall back or agree anyway.
        table = get_table(6)
        target = matrix_of(word) if word else np.eye(2, dtype=complex)
        for ranges in self.LAYOUTS:
            self._assert_same(slot_layout(table, ranges).mps(target))
        assert len(paths) == len(self.LAYOUTS)
