"""Matrix-product-state circuit simulation with bond truncation.

:class:`TraceMPS` (the synthesis engine) represents a *trace tensor*;
this module generalizes the same machinery to *states*: a circuit is
applied gate-by-gate to an open-boundary MPS over the qubit chain, with
every two-qubit gate absorbed by a local contraction + SVD and the bond
dimension capped at ``max_bond``.  Memory is ``O(n * max_bond^2)``
instead of ``2^n``, which is what lets 20+ qubit circuits through the
fidelity-evaluation wall.

Conventions
-----------
* Site tensors have shape ``(D_left, 2, D_right)``; boundary bonds are 1.
* A mixed-canonical form is maintained: everything left of
  :attr:`CircuitMPS.center` is left-canonical, everything right of it is
  right-canonical.  The center is swept (QR/LQ) to each two-qubit gate
  before its SVD, so local singular values *are* Schmidt coefficients
  and truncation is globally optimal, norm-preserving, and exactly
  accounted.
* Gates on non-adjacent qubits work at a bond-dimension cost: whole
  circuits (:meth:`CircuitMPS.run`) are pre-routed to a line target
  with the lookahead router of :mod:`repro.target.routing` and
  un-permuted at the end; single long-range gates (:meth:`apply_2q`)
  fall back to explicit there-and-back swap chains.
* Truncation keeps the state normalized: discarded Schmidt weight is
  accumulated in :attr:`CircuitMPS.truncation_error` and the kept
  spectrum is rescaled, so fidelities stay comparable across backends
  (the reported number is then accurate only up to the accumulated
  truncation weight).
"""

from __future__ import annotations

import numpy as np

from repro.circuits.circuit import Circuit, Gate

_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
).reshape(2, 2, 2, 2)


class CircuitMPS:
    """A pure state on ``n_qubits`` wires as a bond-truncated MPS."""

    def __init__(
        self,
        n_qubits: int,
        max_bond: int = 64,
        svd_cutoff: float = 1e-12,
    ):
        if n_qubits < 1:
            raise ValueError("CircuitMPS needs at least one qubit")
        if max_bond < 1:
            raise ValueError("max_bond must be positive")
        self.n = n_qubits
        self.max_bond = int(max_bond)
        self.svd_cutoff = float(svd_cutoff)
        self.truncation_error = 0.0  # cumulative discarded Schmidt weight
        zero = np.zeros((1, 2, 1), dtype=complex)
        zero[0, 0, 0] = 1.0
        self.tensors = [zero.copy() for _ in range(n_qubits)]
        # A product state is canonical everywhere; pick site 0.
        self.center = 0

    # -- canonical-form maintenance ----------------------------------------
    def _move_center(self, to: int) -> None:
        """Sweep the orthogonality center to site ``to`` via QR/LQ."""
        while self.center < to:
            i = self.center
            t = self.tensors[i]
            dl, _, dr = t.shape
            q, r = np.linalg.qr(t.reshape(dl * 2, dr))
            k = q.shape[1]
            self.tensors[i] = np.ascontiguousarray(q.reshape(dl, 2, k))
            self.tensors[i + 1] = np.einsum(
                "kb,bar->kar", r, self.tensors[i + 1]
            )
            self.center = i + 1
        while self.center > to:
            i = self.center
            t = self.tensors[i]
            dl, _, dr = t.shape
            # LQ via QR of the conjugate transpose: t = L Q.
            q, r = np.linalg.qr(t.reshape(dl, 2 * dr).conj().T)
            k = q.shape[1]
            self.tensors[i] = np.ascontiguousarray(
                q.conj().T.reshape(k, 2, dr)
            )
            self.tensors[i - 1] = np.einsum(
                "lar,rk->lak", self.tensors[i - 1], r.conj().T
            )
            self.center = i - 1

    # -- gate application --------------------------------------------------
    def apply_1q(self, m: np.ndarray, q: int) -> None:
        m = np.asarray(m, dtype=complex)
        # Non-unitary operators (Kraus branches) break canonicity away
        # from the center; sweep there first so the form survives.
        if not np.allclose(m @ m.conj().T, np.eye(2), atol=1e-12):
            self._move_center(q)
        self.tensors[q] = np.einsum("ab,lbr->lar", m, self.tensors[q])

    def _apply_2q_adjacent(self, m4: np.ndarray, i: int) -> None:
        """Apply a (2,2,2,2) operator on sites (i, i+1) and re-split."""
        if self.center < i:
            self._move_center(i)
        elif self.center > i + 1:
            self._move_center(i + 1)
        a, b = self.tensors[i], self.tensors[i + 1]
        dl, dr = a.shape[0], b.shape[2]
        theta = np.einsum("lar,rbs->labs", a, b)
        theta = np.einsum("cdab,labs->lcds", m4, theta)
        mat = theta.reshape(dl * 2, 2 * dr)
        u, s, vh = np.linalg.svd(mat, full_matrices=False)
        norm2 = float(np.sum(s**2))
        if norm2 <= 0.0:
            raise ArithmeticError("MPS norm vanished during 2q application")
        keep = int(np.sum(s > self.svd_cutoff * s[0]))
        keep = max(1, min(keep, self.max_bond))
        kept2 = float(np.sum(s[:keep] ** 2))
        self.truncation_error += max(0.0, 1.0 - kept2 / norm2)
        # Rescale so the state stays normalized after truncation.
        s = s[:keep] * np.sqrt(norm2 / kept2)
        self.tensors[i] = np.ascontiguousarray(
            u[:, :keep].reshape(dl, 2, keep)
        )
        self.tensors[i + 1] = np.ascontiguousarray(
            (s[:, None] * vh[:keep]).reshape(keep, 2, dr)
        )
        self.center = i + 1

    def _swap_sites(self, i: int) -> None:
        """Swap the qubits on sites i and i+1."""
        self._apply_2q_adjacent(_SWAP, i)

    def apply_2q(self, m: np.ndarray, a: int, b: int) -> None:
        """Apply a 4x4 gate on qubits ``(a, b)`` (any distance apart)."""
        m4 = np.asarray(m, dtype=complex).reshape(2, 2, 2, 2)
        i, j = (a, b) if a < b else (b, a)
        if a > b:  # gate order (a, b) with a on the right: permute indices
            m4 = m4.transpose(1, 0, 3, 2)
        # Route qubit j down to site i+1, apply, route back.
        for k in range(j - 1, i, -1):
            self._swap_sites(k)
        self._apply_2q_adjacent(m4, i)
        for k in range(i + 1, j):
            self._swap_sites(k)

    def apply_gate(self, gate: Gate) -> None:
        if len(gate.qubits) == 1:
            self.apply_1q(gate.matrix(), gate.qubits[0])
        else:
            self.apply_2q(gate.matrix(), *gate.qubits)

    def run(self, circuit: Circuit) -> "CircuitMPS":
        """Apply a whole circuit, pre-routing long-range gates.

        When the circuit contains non-adjacent two-qubit gates, it is
        first routed to a line target with the lookahead router of
        :mod:`repro.target.routing` — fewer swaps than the per-gate
        there-and-back chains of :meth:`apply_2q` — and the final qubit
        permutation is undone with adjacent swaps afterwards, so the
        resulting state equals the gate-by-gate one up to
        truncation-order effects.  Circuits below three qubits apply
        gate by gate.
        """
        if circuit.n_qubits != self.n:
            raise ValueError("circuit size mismatch")
        needs_routing = any(
            len(g.qubits) == 2 and abs(g.qubits[0] - g.qubits[1]) != 1
            for g in circuit.gates
        )
        if needs_routing and self.n >= 3:
            from repro.target import Target, route_circuit

            routed = route_circuit(
                circuit, Target.line(self.n), layout="trivial"
            )
            for gate in routed.circuit.gates:
                self.apply_gate(gate)
            self._restore_site_order(routed.final_layout.as_list())
            return self
        for gate in circuit.gates:
            self.apply_gate(gate)
        return self

    def _restore_site_order(self, l2p) -> None:
        """Undo a routing permutation with adjacent swaps.

        ``l2p[v]`` is the site currently holding qubit ``v``; after the
        selection-sort sweep every qubit is back on its own site, so
        readout (amplitudes, overlaps, statevectors) is unchanged.
        """
        p2l = [0] * self.n
        for v, p in enumerate(l2p):
            p2l[p] = v
        for site in range(self.n):
            src = p2l.index(site, site)
            for k in range(src - 1, site - 1, -1):
                self._swap_sites(k)
                p2l[k], p2l[k + 1] = p2l[k + 1], p2l[k]

    # -- measurement-free readout ------------------------------------------
    def norm(self) -> float:
        env = np.ones((1, 1), dtype=complex)
        for t in self.tensors:
            env = np.einsum("lm,lar,mas->rs", env, t, t.conj())
        return float(np.sqrt(max(0.0, env[0, 0].real)))

    def overlap(self, other: "CircuitMPS") -> complex:
        """Inner product <self|other> contracted in O(n D^3)."""
        if other.n != self.n:
            raise ValueError("qubit-count mismatch in overlap")
        env = np.ones((1, 1), dtype=complex)
        for mine, theirs in zip(self.tensors, other.tensors):
            env = np.einsum("lm,lar,mas->rs", env, mine.conj(), theirs)
        return complex(env[0, 0])

    def amplitude(self, bits) -> complex:
        """Amplitude of one computational-basis state (MSB = qubit 0)."""
        bits = list(bits)
        if len(bits) != self.n:
            raise ValueError("bitstring length mismatch")
        vec = np.ones((1, 1), dtype=complex)
        for t, b in zip(self.tensors, bits):
            vec = vec @ t[:, int(b), :]
        return complex(vec[0, 0])

    def to_statevector(self, max_qubits: int = 22) -> np.ndarray:
        """Contract into a dense statevector (guarded against blowups)."""
        if self.n > max_qubits:
            raise ValueError(
                f"refusing dense statevector on {self.n} qubits "
                f"(limit {max_qubits})"
            )
        psi = self.tensors[0].reshape(2, -1)
        for t in self.tensors[1:]:
            psi = np.einsum("xl,lar->xar", psi, t)
            psi = psi.reshape(-1, t.shape[2])
        return np.ascontiguousarray(psi[:, 0])

    def copy(self) -> "CircuitMPS":
        dup = CircuitMPS(self.n, self.max_bond, self.svd_cutoff)
        dup.tensors = [t.copy() for t in self.tensors]
        dup.truncation_error = self.truncation_error
        dup.center = self.center
        return dup
