"""Cross-validation between independent subsystems.

These tests pit implementations that were built separately against each
other: trasyn vs gridsynth on identical Rz targets, exact ring
arithmetic vs float matrices, the MPS vs exhaustive scans over real
table slices, and both circuit workflows against the ideal circuit
unitary.  Agreement here is strong evidence that no single subsystem is
self-consistently wrong.
"""

import math

import numpy as np
import pytest

from repro.enumeration import get_table
from repro.enumeration.vectorized import batch_to_complex
from repro.gates.exact import ExactUnitary
from repro.linalg import haar_random_u2, rz, trace_distance
from repro.synthesis import synthesize, trasyn
from repro.synthesis.gridsynth import exact_synthesize, gridsynth_rz
from repro.synthesis.sequences import matrix_of, t_count_of
from repro.tensornet import TraceMPS


@pytest.fixture(scope="module")
def table6():
    return get_table(6)


class TestTrasynVsGridsynth:
    def test_rz_targets_comparable_quality(self, table6):
        """On Rz targets both synthesizers face the same problem; at a
        T budget matching gridsynth's output, trasyn must not lose badly
        (it searches the same Clifford+T space)."""
        rng = np.random.default_rng(0)
        for theta in (0.83, 2.17):
            base = gridsynth_rz(theta, 0.02)
            ours = trasyn(rz(theta), error_threshold=0.02, rng=rng)
            assert ours.error <= 0.02
            # Same-error solutions should have comparable T cost.
            assert ours.t_count <= base.t_count + 8

    def test_gridsynth_sequence_survives_trasyn_postprocess(self, table6):
        """Step-3 peephole simplification must not break or worsen a
        gridsynth output (both speak the same gate language)."""
        from repro.synthesis import simplify_sequence

        seq = gridsynth_rz(1.234, 0.05)
        simplified = simplify_sequence(list(seq.gates), table6)
        before = ExactUnitary.from_gates(seq.gates)
        after = (
            ExactUnitary.from_gates(simplified)
            if simplified else ExactUnitary.identity()
        )
        assert before.equals_up_to_phase(after)
        assert t_count_of(simplified) <= seq.t_count


class TestExactVsFloat:
    def test_batch_conversion_matches_exact(self, table6):
        mats = batch_to_complex(table6.coeffs[:100], table6.karr[:100])
        for i in range(0, 100, 7):
            assert np.allclose(mats[i], table6.exact(i).to_matrix())

    def test_exact_synthesis_agrees_with_float_product(self):
        rng = np.random.default_rng(1)
        names = ("H", "T", "S", "Sdg", "X", "Tdg")
        for _ in range(10):
            word = [names[i] for i in rng.integers(0, len(names), size=12)]
            u = ExactUnitary.from_gates(word)
            tokens = exact_synthesize(u)
            d = trace_distance(matrix_of(word), matrix_of(tokens))
            assert d < 1e-7


class TestMPSvsExhaustive:
    def test_two_slot_mps_equals_exhaustive_best(self, table6):
        """For small slices the sampled+refined best must match a brute
        force scan over all pairs."""
        rng = np.random.default_rng(2)
        target = haar_random_u2(rng)
        idx = table6.indices_for_t_range(0, 2)  # 240 matrices
        mats = table6.mats[idx]
        # Brute force over all pairs.
        amps = np.einsum(
            "ab,ibc,jca->ij", target.conj().T, mats, mats
        )
        best_brute = np.abs(amps).max()
        mps = TraceMPS(target, [mats, mats])
        _, sampled = mps.sample(2000, rng)
        beam_idx, beam_amp = mps.best_first(beam_width=240)
        assert abs(beam_amp) == pytest.approx(best_brute, rel=1e-9)
        assert np.abs(sampled).max() <= best_brute + 1e-9

    def test_synthesize_matches_brute_force_error(self, table6):
        rng = np.random.default_rng(3)
        target = haar_random_u2(rng)
        idx = table6.indices_for_t_range(0, 2)
        mats = table6.mats[idx]
        amps = np.einsum("ab,ibc,jca->ij", target.conj().T, mats, mats)
        tv = np.abs(amps).max() / 2.0
        best_err = math.sqrt(max(0.0, 1 - min(tv, 1.0) ** 2))
        res = synthesize(target, [2, 2], n_samples=2000, rng=rng,
                         table=table6)
        assert res.sequence.error == pytest.approx(best_err, abs=1e-6)


class TestWorkflowsVsIdealUnitary:
    @pytest.mark.slow
    def test_both_flows_agree_with_ideal(self):
        from repro.experiments.workflows import matched_thresholds
        from repro.circuits import Circuit
        from repro.pipeline import compile_circuit

        c = Circuit(2)
        c.h(0).rz(0.77, 0).cx(0, 1).rx(1.31, 1).cx(0, 1).ry(0.4, 0)
        u3c, rzc, eps_t, eps_g = matched_thresholds(c, 0.01)
        tra = compile_circuit(u3c, "trasyn", eps_t, seed=4,
                              pre_transpiled=True)
        grid = compile_circuit(rzc, "gridsynth", eps_g, seed=4,
                               pre_transpiled=True)
        ideal = c.unitary()
        d_tra = trace_distance(ideal, tra.circuit.unitary())
        d_grid = trace_distance(ideal, grid.circuit.unitary())
        assert d_tra <= tra.total_synthesis_error + 1e-9
        assert d_grid <= grid.total_synthesis_error + 1e-9
