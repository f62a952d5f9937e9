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


def _scan_sample_site(a, gram, msgs, rng, chunk_size=1024):
    """Reference conditional step: each sample scans all N row weights.

    Clipped weights m^dag G[s] m, their cumulative sum and a per-sample
    ``searchsorted``, in chunks of at most ``chunk_size`` samples.
    """
    n, dl, dr = a.shape
    k = msgs.shape[0]
    sel = np.empty(k, dtype=np.int64)
    new_msgs = np.empty((k, dr), dtype=complex)
    for lo in range(0, k, chunk_size):
        hi = min(lo + chunk_size, k)
        m = msgs[lo:hi]
        m2 = (m[:, :, None] * m.conj()[:, None, :]).reshape(hi - lo, dl * dl)
        c = np.cumsum(np.maximum((m2 @ gram.T).real, 0.0), axis=1)
        norm = c[:, -1]
        if (norm <= 0).any():
            raise ArithmeticError("conditional distribution vanished")
        r = rng.random(hi - lo) * norm
        chosen = np.array(
            [np.searchsorted(row, x) for row, x in zip(c, r)], dtype=np.int64
        ).clip(max=n - 1)
        sel[lo:hi] = chosen
        new_msgs[lo:hi] = np.einsum("cl,clr->cr", m, a[chosen])
    return sel, new_msgs


class TestPrefixBisection:
    """``TraceMPS._sample_site`` bisects Gram prefix sums; the scan is the
    reference it must agree with pick for pick and draw for draw."""

    @staticmethod
    def _site(rng, n, dl, dr, zero_rows=()):
        a = rng.normal(size=(n, dl, dr)) + 1j * rng.normal(size=(n, dl, dr))
        a[list(zero_rows)] = 0.0
        gram = np.einsum("slr,smr->slm", a, a.conj()).reshape(n, -1)
        return a, gram

    @pytest.mark.parametrize(
        "n, dl, dr, zero_rows",
        [
            (1, 4, 4, ()),
            (2, 4, 1, (0,)),
            (7, 4, 4, (0, 3, 6)),
            (33, 4, 4, (5, 6, 7, 8, 31, 32)),
            (64, 2, 4, ()),
            (257, 4, 1, tuple(range(0, 257, 3))),
        ],
    )
    def test_matches_scan(self, n, dl, dr, zero_rows):
        rng = np.random.default_rng(n)
        a, gram = self._site(rng, n, dl, dr, zero_rows)
        prefix = np.cumsum(gram, axis=0)
        for trial in range(4):
            k = (1, 9, 200, 1000)[trial]
            msgs = rng.normal(size=(k, dl)) + 1j * rng.normal(size=(k, dl))
            rng_scan = np.random.default_rng(trial)
            rng_bis = np.random.default_rng(trial)
            sel_ref, msg_ref = _scan_sample_site(a, gram, msgs, rng_scan, 7)
            sel, new = TraceMPS._sample_site(a, prefix, msgs, rng_bis)
            assert np.array_equal(sel, sel_ref)
            assert not np.isin(sel, zero_rows).any()
            assert np.abs(new - msg_ref).max() <= 1e-12 * max(
                1.0, np.abs(msg_ref).max()
            )
            assert rng_bis.bit_generator.state == rng_scan.bit_generator.state

    def test_sample_matches_scan_chain(self):
        rng = np.random.default_rng(23)
        target = haar_random_u2(rng)
        mats = _random_sites(rng, (9, 1, 12, 5))
        mps = TraceMPS(target, mats)
        rng_bis = np.random.default_rng(4)
        choices, amps = mps.sample(300, rng_bis)
        # Replay the chain with the scan at every site past the first.
        rng_scan = np.random.default_rng(4)
        first = mps.tensors[0][:, 0, :]
        probs0 = np.maximum(np.einsum("sd,sd->s", first, first.conj()).real, 0)
        sel0 = rng_scan.choice(len(probs0), size=300, p=probs0 / probs0.sum())
        assert np.array_equal(sel0, choices[:, 0])
        msgs = first[sel0]
        for site in range(1, mps.n_sites):
            a = mps.tensors[site]
            gram = np.einsum("slr,smr->slm", a, a.conj()).reshape(a.shape[0], -1)
            sel, msgs = _scan_sample_site(a, gram, msgs, rng_scan)
            assert np.array_equal(sel, choices[:, site])
        assert np.abs(msgs[:, 0] - amps).max() <= 1e-12
        assert rng_bis.bit_generator.state == rng_scan.bit_generator.state

    def test_vanished_distribution_raises(self):
        rng = np.random.default_rng(2)
        a, gram = self._site(rng, 5, 4, 4, zero_rows=range(5))
        msgs = np.ones((3, 4), dtype=complex)
        with pytest.raises(ArithmeticError, match="vanished"):
            TraceMPS._sample_site(a, np.cumsum(gram, axis=0), msgs, rng)


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
