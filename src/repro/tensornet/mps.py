"""The trace-value MPS at the heart of trasyn.

Given a target unitary ``U`` and per-slot candidate matrices ``M_i[s_i]``
(each slot holding every Clifford+T matrix within a T-count range), the
exponentially large tensor of trace values

    T[s_1, ..., s_l] = Tr( U^dag  M_1[s_1] M_2[s_2] ... M_l[s_l] )

is represented exactly as a matrix product state with bond dimension at
most four: the 2x2 matrix index pair travels along the chain and the
trace closure index is carried through every bond (paper Figure 5(b-c),
implemented here as an open-boundary MPS instead of a ring).

Right-canonicalizing the chain (sequential SVDs, paper step 1) makes the
conditional distributions of step 2 local, so *perfect sampling* from
``p proportional to |T|^2`` costs one forward pass per sample batch, and
every sample's amplitude — hence its synthesis error — comes out of the
pass for free.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_EYE2 = np.eye(2, dtype=complex)

# Working-set bound of one sampling chunk: its rows are sized so the
# (rows x N) complex conditional weights plus their float cumulative sum
# fit in this many bytes, whatever the slot size N.
SAMPLE_CHUNK_BYTES = 64 * 2**20


@dataclass(frozen=True)
class CanonicalTail:
    """Target-independent part of a right-canonical :class:`TraceMPS`.

    Only site 0 depends on the target.  Sites 1..l-1 after
    right-canonicalization, their Gram matrices (used by sampling) and
    the carry into site 0 depend on the slot matrices alone, so one tail
    serves every target synthesized with the same slot layout.
    """

    tensors: tuple[np.ndarray, ...]  # sites 1..l-1, each (N, D_left, D_right)
    grams: tuple[np.ndarray, ...]  # per tail site, (N, D_left**2)
    carry: np.ndarray  # (4, D) folded into site 0

    @classmethod
    def build(cls, site_matrices: list[np.ndarray]) -> "CanonicalTail":
        """Assemble and right-canonicalize sites 1..l-1; bond carries (b, a)."""
        # Middle sites: W[s, (b,a), (c,a')] = M[s, b, c] * delta_{a,a'}.
        tensors: list[np.ndarray] = []
        for m in site_matrices[1:-1]:
            w = np.einsum("sbc,ad->sbacd", m, _EYE2)
            tensors.append(np.ascontiguousarray(w.reshape(m.shape[0], 4, 4)))
        # Last site: V[s, (b,a)] = M[s, b, a] closes the trace loop.
        tensors.append(np.ascontiguousarray(site_matrices[-1].reshape(-1, 4, 1)))
        # Sequential SVDs move the orthogonality center to site 0.
        carry = None
        for i in range(len(tensors) - 1, -1, -1):
            a = tensors[i]
            n, dl, dr = a.shape
            mat = a.transpose(1, 0, 2).reshape(dl, n * dr)
            u, s, vh = np.linalg.svd(mat, full_matrices=False)
            rank = s.shape[0]
            tensors[i] = np.ascontiguousarray(
                vh.reshape(rank, n, dr).transpose(1, 0, 2)
            )
            carry = u * s
            if i > 0:
                tensors[i - 1] = np.einsum("slm,mr->slr", tensors[i - 1], carry)
        # Gram tensor P[s, l, l'] = sum_r A[s,l,r] conj(A[s,l',r]); the
        # conditional sampling weight of a message m is m^dag P m.
        grams = [
            np.einsum("slr,smr->slm", a, a.conj()).reshape(a.shape[0], -1)
            for a in tensors
        ]
        for arr in (*tensors, *grams, carry):
            arr.setflags(write=False)
        return cls(tuple(tensors), tuple(grams), carry)


class TraceMPS:
    """Open-boundary MPS whose full contraction enumerates trace values.

    Parameters
    ----------
    target:
        The 2x2 unitary ``U`` being synthesized.
    site_matrices:
        List of arrays, one per slot, each of shape ``(N_i, 2, 2)``.
    tail:
        The :class:`CanonicalTail` of ``site_matrices``, when the caller
        keeps one; it is built here otherwise.
    """

    def __init__(
        self,
        target: np.ndarray,
        site_matrices: list[np.ndarray],
        tail: CanonicalTail | None = None,
    ):
        if len(site_matrices) < 2:
            raise ValueError("TraceMPS needs at least two slots; use a direct "
                             "table lookup for single-slot synthesis")
        target = np.asarray(target, dtype=complex)
        if target.shape != (2, 2):
            raise ValueError("target must be a 2x2 matrix")
        self.target = target
        self.n_sites = len(site_matrices)
        self.site_sizes = [m.shape[0] for m in site_matrices]
        if tail is None:
            tail = CanonicalTail.build(site_matrices)
        # Site 0: B[s] = U^dag M_1[s]; vector over bond (b1, a) = B[s, a, b1],
        # times the carry that holds the rest of the chain's normalization.
        b = np.einsum("ab,sbc->sac", target.conj().T, site_matrices[0])
        first = b.transpose(0, 2, 1).reshape(-1, 1, 4)
        self.tensors = [
            np.einsum("slm,mr->slr", first, tail.carry), *tail.tensors
        ]
        self._grams = tail.grams

    # -- exact contraction (testing / tiny instances) -----------------------
    def full_tensor(self) -> np.ndarray:
        """Contract everything into the dense trace-value tensor.

        Exponential in the number of slots — test-sized inputs only.
        """
        result = self.tensors[0]  # (N1, 1, D)
        n_accum = result.shape[0]
        result = result.reshape(n_accum, -1)
        for a in self.tensors[1:]:
            n, dl, dr = a.shape
            result = np.einsum("xl,slr->xsr", result.reshape(-1, dl), a)
            result = result.reshape(-1, dr)
        return result.reshape(self.site_sizes)

    # -- perfect sampling ----------------------------------------------------
    def sample(
        self,
        n_samples: int,
        rng: np.random.Generator,
        chunk_size: int = 1024,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw samples from p(s_1..s_l) proportional to |T[s_1..s_l]|^2.

        Returns ``(choices, amplitudes)`` with ``choices`` of shape
        ``(n_samples, n_sites)`` and exact complex trace values per
        sample (no renormalization is ever applied to amplitudes).
        ``chunk_size`` caps the samples advanced together; the chunk is
        smaller still when needed to stay within ``SAMPLE_CHUNK_BYTES``.
        """
        first = self.tensors[0][:, 0, :]  # (N1, D)
        probs0 = np.einsum("sd,sd->s", first, first.conj()).real
        probs0 = np.maximum(probs0, 0.0)
        total = probs0.sum()
        if total <= 0.0:
            raise ArithmeticError("degenerate MPS: all trace values vanish")
        choices = np.empty((n_samples, self.n_sites), dtype=np.int64)
        choices[:, 0] = rng.choice(
            probs0.shape[0], size=n_samples, p=probs0 / total
        )
        msgs = first[choices[:, 0]]  # (k, D)
        for site in range(1, self.n_sites):
            sel, msgs = self._sample_site(
                self.tensors[site], self._grams[site - 1], msgs, rng,
                chunk_size,
            )
            choices[:, site] = sel
        amplitudes = msgs[:, 0]
        return choices, amplitudes

    @staticmethod
    def _sample_site(
        a: np.ndarray,
        gram: np.ndarray,
        msgs: np.ndarray,
        rng: np.random.Generator,
        chunk_size: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """One conditional-sampling step for a batch of partial chains."""
        n, dl, dr = a.shape
        k = msgs.shape[0]
        # Per entry: 16 bytes of complex weights, 8 of cumulative sum.
        rows = max(1, min(chunk_size, SAMPLE_CHUNK_BYTES // (24 * n)))
        cum = np.empty((min(rows, k), n))
        sel = np.empty(k, dtype=np.int64)
        new_msgs = np.empty((k, dr), dtype=complex)
        for lo in range(0, k, rows):
            hi = min(lo + rows, k)
            m = msgs[lo:hi]
            c = cum[: hi - lo]
            m2 = (m[:, :, None] * m.conj()[:, None, :]).reshape(hi - lo, dl * dl)
            np.maximum((m2 @ gram.T).real, 0.0, out=c)
            np.cumsum(c, axis=1, out=c)
            norm = c[:, -1]
            if (norm <= 0).any():
                raise ArithmeticError("conditional distribution vanished")
            r = rng.random(hi - lo) * norm
            chosen = np.array(
                [np.searchsorted(row, x) for row, x in zip(c, r)],
                dtype=np.int64,
            ).clip(max=n - 1)
            sel[lo:hi] = chosen
            new_msgs[lo:hi] = np.einsum("cl,clr->cr", m, a[chosen])
        return sel, new_msgs

    # -- greedy decoding (extension beyond the paper) -------------------------
    def best_first(self, beam_width: int = 64) -> tuple[np.ndarray, complex]:
        """Beam search for a high-|amplitude| index assignment.

        The conditional weights used for sampling also steer a
        deterministic beam search; this is the "fine-grained control"
        extension the paper's tensor formulation makes cheap.  trasyn's
        :func:`~repro.synthesis.trasyn.synthesize` does not use it.
        """
        if beam_width < 1:
            raise ValueError(f"beam_width must be at least 1, got {beam_width}")
        first = self.tensors[0][:, 0, :]
        weights = np.einsum("sd,sd->s", first, first.conj()).real
        order = np.argsort(weights)[::-1][:beam_width]
        beams = [((int(s),), first[s]) for s in order]
        for site in range(1, self.n_sites):
            msgs = np.stack([m for _, m in beams])
            b = np.einsum("kl,slr->ksr", msgs, self.tensors[site])
            scores = np.einsum("ksr,ksr->ks", b, b.conj()).real
            flat = np.argsort(scores, axis=None)[::-1][:beam_width]
            beams = [
                (beams[ki][0] + (int(si),), b[ki, si])
                for ki, si in zip(*np.unravel_index(flat, scores.shape))
            ]
        best_idx, best_msg = max(beams, key=lambda t: abs(t[1][0]))
        return np.array(best_idx, dtype=np.int64), complex(best_msg[0])
