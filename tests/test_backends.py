"""Tests for the pluggable simulation backends and the sim bugfixes."""

import functools
import math
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import Circuit
from repro.circuits.circuit import Gate
from repro.sim import (
    NoiseModel,
    ProgramCache,
    canonical_gate_name,
    depolarizing_kraus,
    evaluate_fidelity,
    select_backend,
)
from repro.sim.backends import (
    DEFAULT_MEMORY_BUDGET,
    DensityMatrixBackend,
    MPSBackend,
    StatevectorTrajectoryBackend,
)
from repro.sim.backends.statevector import (
    _apply_1q_batch,
    _apply_kraus_general,
    _apply_matrix_batch,
)
from repro.sim.fidelity import choi_of_sequence
from repro.sim.program import compile_program
from repro.tensornet import CircuitMPS


def _test_circuit(n=3):
    c = Circuit(n).h(0).cx(0, 1).t(1).rz(0.3, 0)
    for q in range(n - 1):
        c.cx(q, q + 1)
    c.h(n - 1).tdg(0).s(1)
    return c


ALL_BACKENDS = [
    DensityMatrixBackend(),
    StatevectorTrajectoryBackend(trajectories=50, seed=3),
    MPSBackend(trajectories=50, seed=3),
]


class TestNoiselessEquivalence:
    @pytest.mark.parametrize("backend", ALL_BACKENDS, ids=lambda b: b.name)
    def test_matches_dense_statevector(self, backend):
        c = _test_circuit()
        psi = c.statevector()
        result = backend.run(c)
        assert result.fidelity(psi) == pytest.approx(1.0, abs=1e-9)
        assert result.n_trajectories == 1

    def test_statevector_readout_agrees(self):
        c = _test_circuit()
        psi = c.statevector()
        sv = StatevectorTrajectoryBackend().run(c).statevector()
        mps = MPSBackend().run(c).statevector()
        assert np.allclose(sv, psi, atol=1e-9)
        assert abs(np.vdot(mps, psi)) == pytest.approx(1.0, abs=1e-9)


class TestNoisyEquivalence:
    def test_trajectories_match_density_matrix(self):
        c = _test_circuit()
        psi = c.statevector()
        noise = NoiseModel.non_pauli_gates(0.02)
        exact = DensityMatrixBackend().run(c, noise).fidelity(psi)
        sv = StatevectorTrajectoryBackend(trajectories=1500, seed=11).run(
            c, noise
        )
        err = sv.fidelity_std_error(psi)
        assert err is not None and err > 0
        assert sv.fidelity(psi) == pytest.approx(exact, abs=max(5 * err, 0.02))

    def test_mps_trajectories_match_density_matrix(self):
        c = _test_circuit()
        psi = c.statevector()
        noise = NoiseModel.non_pauli_gates(0.02)
        exact = DensityMatrixBackend().run(c, noise).fidelity(psi)
        mps = MPSBackend(trajectories=400, seed=11).run(c, noise)
        err = mps.fidelity_std_error(psi)
        assert mps.fidelity(psi) == pytest.approx(exact, abs=max(5 * err, 0.04))

    def test_trajectory_determinism_across_chunking(self):
        c = _test_circuit()
        noise = NoiseModel.t_gates_only(0.1)
        a = StatevectorTrajectoryBackend(
            trajectories=40, seed=9, chunk_size=7
        ).run(c, noise)
        b = StatevectorTrajectoryBackend(
            trajectories=40, seed=9, chunk_size=64, max_workers=1
        ).run(c, noise)
        assert np.array_equal(a.states, b.states)

    def test_seed_changes_trajectories(self):
        c = _test_circuit()
        noise = NoiseModel.non_pauli_gates(0.2)
        a = StatevectorTrajectoryBackend(trajectories=20, seed=1).run(c, noise)
        b = StatevectorTrajectoryBackend(trajectories=20, seed=2).run(c, noise)
        assert not np.allclose(a.states, b.states)

    def test_noisy_bundle_has_no_single_statevector(self):
        c = _test_circuit()
        noise = NoiseModel.non_pauli_gates(0.3)
        result = StatevectorTrajectoryBackend(trajectories=4).run(c, noise)
        with pytest.raises(ValueError):
            result.statevector()


def _damping_kraus(g):
    k0 = np.array([[1, 0], [0, np.sqrt(1 - g)]], dtype=complex)
    k1 = np.array([[0, np.sqrt(g)], [0, 0]], dtype=complex)
    return [k0, k1]


class TestGeneralKrausPath:
    """Channels that are not mixtures of unitaries (amplitude damping)."""

    def test_statevector_general_path(self):
        from repro.sim.backends.statevector import _apply_kraus_general
        from repro.sim.program import _as_unitary_mixture

        kraus = _damping_kraus(0.4)
        assert _as_unitary_mixture(kraus) is None
        # 500 trajectories of |1>: damping sends ~40% to |0>.
        k = 500
        states = np.zeros((k, 2), dtype=complex)
        states[:, 1] = 1.0
        uniforms = np.random.default_rng(0).random(k)
        out = _apply_kraus_general(
            states.reshape(k, 2), kraus, 0, uniforms
        ).reshape(k, 2)
        norms = np.abs(out) ** 2
        assert np.allclose(norms.sum(axis=1), 1.0)
        frac_zero = float((norms[:, 0] > 0.99).mean())
        assert frac_zero == pytest.approx(0.4, abs=0.07)

    def test_mps_general_path_matches(self):
        from repro.sim.backends.mps_backend import MPSBackend

        kraus = _damping_kraus(0.4)
        counts = 0
        n_traj = 200
        for t in range(n_traj):
            mps = CircuitMPS(2)
            mps.apply_1q(np.array([[0, 1], [1, 0]], dtype=complex), 0)  # |10>
            u = np.random.default_rng([0, t]).random(1)
            MPSBackend._kraus_event(mps, kraus, None, 0, float(u[0]))
            assert mps.norm() == pytest.approx(1.0, abs=1e-9)
            counts += abs(mps.amplitude([0, 0])) ** 2 > 0.99
        assert counts / n_traj == pytest.approx(0.4, abs=0.1)


    def test_density_honors_custom_kraus(self):
        # Regression: the density engine used to apply depolarizing
        # noise whatever the model's channel factory said.
        noise = NoiseModel(
            0.2, NoiseModel.non_pauli_gates(0.2).applies_to,
            kraus=_damping_kraus,
        )
        c = Circuit(2).x(0).h(1).t(1).cx(0, 1).t(0)
        eye = np.eye(2)
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        for g in c.gates:
            m = g.matrix()
            if len(g.qubits) == 1:
                m = np.kron(m, eye) if g.qubits == (0,) else np.kron(eye, m)
            rho = m @ rho @ m.conj().T
            for q in noise.noisy_qubits(g):
                ops = [
                    np.kron(k, eye) if q == 0 else np.kron(eye, k)
                    for k in _damping_kraus(0.2)
                ]
                rho = sum(k @ rho @ k.conj().T for k in ops)
        psi = c.statevector()
        expected = float(np.real(psi.conj() @ rho @ psi))
        ev = evaluate_fidelity(c, noise=noise)
        assert ev.backend == "density"
        assert ev.fidelity == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.5490, abs=1e-4)


class TestCircuitMPS:
    def test_ghz_20_qubits(self):
        n = 20
        c = Circuit(n).h(0)
        for i in range(n - 1):
            c.cx(i, i + 1)
        mps = MPSBackend(max_bond=4).run(c).mps
        assert abs(mps.amplitude([0] * n)) ** 2 == pytest.approx(0.5)
        assert abs(mps.amplitude([1] * n)) ** 2 == pytest.approx(0.5)
        assert mps.truncation_error == pytest.approx(0.0, abs=1e-12)

    def test_long_range_gates_match_dense(self):
        rng = np.random.default_rng(0)
        c = Circuit(5)
        for _ in range(25):
            if rng.random() < 0.5:
                c.append(
                    ["h", "t", "s", "x"][int(rng.integers(4))],
                    int(rng.integers(5)),
                )
            else:
                a, b = rng.choice(5, 2, replace=False)
                c.cx(int(a), int(b))
        c.swap(0, 4).cz(1, 3).rz(0.7, 2)
        psi = c.statevector()
        mps = MPSBackend(max_bond=32).run(c)
        assert mps.fidelity(psi) == pytest.approx(1.0, abs=1e-9)

    def test_truncation_is_tracked_and_state_normalized(self):
        rng = np.random.default_rng(4)
        n = 8
        c = Circuit(n)
        for _ in range(3):
            for q in range(n):
                c.u3(*rng.uniform(0, np.pi, 3), q)
            for q in range(0, n - 1):
                c.cx(q, q + 1)
            for q in range(n - 1, 0, -2):
                c.cx(0, q)
        mps = CircuitMPS(n, max_bond=4).run(c)
        assert mps.truncation_error > 0
        assert mps.norm() == pytest.approx(1.0, abs=1e-9)

    def test_overlap_against_other_mps(self):
        c = _test_circuit(4)
        a = MPSBackend().run(c).mps
        b = MPSBackend().run(c).mps
        assert abs(a.overlap(b)) == pytest.approx(1.0, abs=1e-9)

    def test_routed_run_matches_legacy_swap_chains(self):
        # CircuitMPS.run pre-routes long-range gates with the lookahead
        # router (repro.target) and undoes the permutation; the state —
        # and therefore any fidelity — must match the legacy per-gate
        # there-and-back chains exactly when nothing truncates.
        rng = np.random.default_rng(9)
        n = 6
        c = Circuit(n)
        for _ in range(30):
            if rng.random() < 0.4:
                c.u3(*rng.uniform(0, np.pi, 3), int(rng.integers(n)))
            else:
                a, b = rng.choice(n, 2, replace=False)
                c.cx(int(a), int(b))
        routed = CircuitMPS(n, max_bond=128).run(c)
        legacy = CircuitMPS(n, max_bond=128)
        for gate in c.gates:
            legacy.apply_gate(gate)
        psi = c.statevector()
        f_routed = abs(np.vdot(psi, routed.to_statevector())) ** 2
        f_legacy = abs(np.vdot(psi, legacy.to_statevector())) ** 2
        assert f_routed == pytest.approx(1.0, abs=1e-9)
        assert f_routed == pytest.approx(f_legacy, abs=1e-9)

    def test_adjacent_only_circuit_skips_routing(self):
        # No long-range 2q gate: run() must not touch repro.target.
        c = Circuit(3).h(0).cx(0, 1).cx(1, 2).cx(2, 1)
        mps = CircuitMPS(3).run(c)
        assert abs(np.vdot(c.statevector(), mps.to_statevector())) ** 2 == (
            pytest.approx(1.0, abs=1e-12)
        )


class TestSelectBackend:
    def test_auto_dispatch_rules(self):
        noise = NoiseModel.non_pauli_gates(1e-3)
        assert select_backend(4, noise).name == "density"
        assert select_backend(8, noise).name == "density"
        assert select_backend(10, noise).name == "statevector"
        assert select_backend(16, noise).name == "statevector"
        assert select_backend(30, noise).name == "mps"
        assert select_backend(10).name == "statevector"
        assert select_backend(30).name == "mps"

    def test_noisy_memory_accounts_for_all_trajectories(self):
        # 200 trajectories of 2^20 amplitudes exceed 2 GiB even though
        # a single chunk would fit — dispatch must count the stack.
        noise = NoiseModel.non_pauli_gates(1e-3)
        assert select_backend(20, noise).name == "mps"
        assert select_backend(20, noise, trajectories=20).name == "statevector"

    def test_noiseless_dispatch_uses_single_state_cost(self):
        # Noiseless runs are one deterministic state: 22 qubits fits.
        assert select_backend(22).name == "statevector"

    def test_memory_budget_forces_mps(self):
        sim = select_backend(16, memory_budget_bytes=2**20)
        assert sim.name == "mps"

    @pytest.mark.parametrize("n_qubits", [10, 14, 18])
    def test_engine_choice_independent_of_worker_count(self, n_qubits):
        import threading

        noise = NoiseModel.non_pauli_gates(1e-4)
        threads = threading.active_count()
        picks = {
            w: select_backend(n_qubits, noise, max_workers=w)
            for w in [None, *range(1, 17)]
        }
        assert threading.active_count() == threads
        assert len({sim.name for sim in picks.values()}) == 1
        assert picks[1].name == "statevector"
        for w, sim in picks.items():
            # The pool is capped so the footprint fits the budget.
            assert sim.memory_bytes(n_qubits) <= DEFAULT_MEMORY_BUDGET
            if w is not None:
                assert 1 <= sim.max_workers <= w

    def test_pool_capped_to_budget_at_18_qubits(self):
        noise = NoiseModel.non_pauli_gates(1e-4)
        assert select_backend(18, noise, max_workers=1).max_workers == 1
        assert select_backend(18, noise, max_workers=2).max_workers == 2
        # A third 64-row block in flight would pass 2 GiB.
        assert select_backend(18, noise, max_workers=8).max_workers == 2

    def test_explicit_names_and_aliases(self):
        assert select_backend(4, backend="density").name == "density"
        assert select_backend(4, backend="dm").name == "density"
        assert select_backend(4, backend="sv").name == "statevector"
        assert select_backend(4, backend="tensornet").name == "mps"

    def test_explicit_backend_validates_size(self):
        with pytest.raises(ValueError):
            select_backend(20, backend="density")
        with pytest.raises(ValueError):
            select_backend(40, backend="statevector")

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            select_backend(4, backend="quantum-annealer")


class TestEvaluateFidelity:
    def test_noiseless_self_reference_is_one(self):
        ev = evaluate_fidelity(_test_circuit())
        assert ev.fidelity == pytest.approx(1.0, abs=1e-9)
        assert ev.infidelity == pytest.approx(0.0, abs=1e-9)

    def test_noise_reduces_fidelity(self):
        c = _test_circuit()
        noise = NoiseModel.non_pauli_gates(0.05)
        ev = evaluate_fidelity(c, noise=noise)
        assert ev.backend == "density"
        assert 0.0 < ev.fidelity < 1.0

    def test_large_circuit_through_mps(self):
        n = 20
        c = Circuit(n).h(0)
        for i in range(n - 1):
            c.cx(i, i + 1)
        c.t(0).t(n - 1)
        noise = NoiseModel.t_gates_only(0.5)
        ev = evaluate_fidelity(
            c, noise=noise, backend="mps", trajectories=20, seed=5
        )
        assert ev.backend == "mps"
        assert ev.n_trajectories == 20
        assert 0.0 <= ev.fidelity <= 1.0 + 1e-9
        # Two 50%-depolarizing events must lose measurable fidelity.
        assert ev.fidelity < 0.95


class TestGateNameNormalization:
    """Regression: noise must hit T gates in either capitalization."""

    def test_canonical_name(self):
        assert canonical_gate_name("T") == "t"
        assert canonical_gate_name("Tdg") == "tdg"
        assert canonical_gate_name("h") == "h"

    def test_noise_model_matches_uppercase_gates(self):
        m = NoiseModel.t_gates_only(1e-3)
        assert m.noisy_qubits(Gate("t", (0,))) == (0,)
        # Synthesis-layer capitalization must not dodge the noise.
        assert m.applies_to(Gate("t", (0,)))
        m2 = NoiseModel.non_pauli_gates(1e-3)
        assert m2.applies_to(Gate("h", (0,)))
        assert not m2.applies_to(Gate("x", (0,)))

    def test_choi_applies_noise_for_ir_style_names(self):
        # Same sequence, both capitalizations: identical noisy Choi.
        upper = choi_of_sequence(["T", "H", "T"], logical_rate=1e-2)
        lower = choi_of_sequence(["t", "h", "t"], logical_rate=1e-2)
        assert np.allclose(upper, lower)

    def test_choi_ir_style_noisy_gates_filter(self):
        # Passing IR-style (lower-case) names as the noisy set must
        # still apply noise to token-style sequences.
        noisy = choi_of_sequence(
            ["T", "H"], logical_rate=1e-2, noisy_gates=frozenset({"t"})
        )
        quiet = choi_of_sequence(["T", "H"], logical_rate=0.0)
        assert not np.allclose(noisy, quiet)


def _interpret_density(circuit, noise=None):
    """Gate-by-gate density evolution, resolving noise per gate.

    The density engine's execution path before it ran compiled
    programs, kept as the byte-identity oracle for the program path.
    """
    n = circuit.n_qubits
    dim = 2**n

    def apply(rho, m, axes):
        k = len(axes)
        m = m.reshape((2,) * (2 * k))
        rho = np.tensordot(m, rho, axes=(list(range(k, 2 * k)), axes))
        return np.moveaxis(rho, list(range(k)), axes)

    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    rho = rho.reshape((2,) * (2 * n))
    factory = None if noise is None else noise.kraus or depolarizing_kraus
    for gate in circuit.gates:
        m = gate.matrix()
        rho = apply(rho, m, list(gate.qubits))
        rho = apply(rho, m.conj(), [n + q for q in gate.qubits])
        if factory is None:
            continue
        for q in noise.noisy_qubits(gate):
            total = None
            for k in factory(noise.rate_for(gate)):
                term = apply(apply(rho, k, [q]), k.conj(), [n + q])
                total = term if total is None else total + term
            rho = total
    return rho.reshape(dim, dim)


def _random_circuit(n_qubits, n_gates, seed, idle=False):
    """Clifford+T+Rz gates, CXs on arbitrary pairs, optional idle markers."""
    rng = random.Random(seed)
    c = Circuit(n_qubits)
    for _ in range(n_gates):
        roll = rng.random()
        q = rng.randrange(n_qubits)
        if roll < 0.2:
            a, b = rng.sample(range(n_qubits), 2)
            c.cx(a, b)
        elif roll < 0.3:
            c.rz(rng.uniform(-math.pi, math.pi), q)
        elif idle and roll < 0.4:
            c.gates.append(Gate("i", (q,), (rng.uniform(0.5, 4.0),)))
        else:
            c.append(rng.choice(["h", "t", "tdg", "s", "x"]), q)
    return c


_HETEROGENEOUS_TARGET = SimpleNamespace(
    gate_errors={"t": 1e-3, "tdg": 2e-3, "h": 5e-4, "cx": 4e-3},
    edge_errors={(1, 2): 0.03, (0, 3): 0.01},
)

DENSITY_NOISE = {
    "noiseless": lambda: None,
    "non_pauli": lambda: NoiseModel.non_pauli_gates(1e-3),
    "t_only": lambda: NoiseModel.t_gates_only(0.02),
    "rate_zero": lambda: NoiseModel.non_pauli_gates(0.0),
    "heterogeneous": lambda: NoiseModel.from_target(_HETEROGENEOUS_TARGET),
    "amplitude_damping": lambda: NoiseModel(
        0.05, NoiseModel.non_pauli_gates(0.05).applies_to,
        kraus=_damping_kraus,
    ),
    "idle": lambda: NoiseModel.with_idle(
        NoiseModel.non_pauli_gates(1e-3), 0.01
    ),
    "idle_only": lambda: NoiseModel.with_idle(None, 0.02),
}


def _long_run_circuit(n_qubits=6, run=300, segments=2, seed=0):
    """Runs of ``run`` 1q gates on every wire between layers of CXs."""
    rng = random.Random(seed)
    c = Circuit(n_qubits)
    for seg in range(segments):
        for q in range(n_qubits):
            for _ in range(run):
                c.append(rng.choice(["h", "t", "tdg", "s", "x"]), q)
        for a in range(seg % 2, n_qubits - 1, 2):
            c.cx(*((a, a + 1) if rng.random() < 0.5 else (a + 1, a)))
    return c


LONG_RUN_NOISE = {
    "depolarizing": lambda: NoiseModel.non_pauli_gates(1e-3),
    "amplitude_damping": lambda: NoiseModel(
        1e-3, NoiseModel.non_pauli_gates(1e-3).applies_to,
        kraus=_damping_kraus,
    ),
}


@functools.lru_cache(maxsize=None)
def _long_run_states(kind):
    c = _long_run_circuit()
    noise = LONG_RUN_NOISE[kind]()
    rho = DensityMatrixBackend(program_cache=ProgramCache()).run(
        c, noise
    ).rho
    return rho, _interpret_density(c, noise)


class TestDensityProgram:
    """The density engine's fused superoperators match gate-by-gate evolution."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("kind", sorted(DENSITY_NOISE))
    def test_matches_interpreter(self, kind, seed):
        noise = DENSITY_NOISE[kind]()
        c = _random_circuit(4, 80, seed, idle=kind.startswith("idle"))
        rho = DensityMatrixBackend(program_cache=ProgramCache()).run(
            c, noise
        ).rho
        assert np.abs(rho - _interpret_density(c, noise)).max() <= 1e-12

    @pytest.mark.parametrize("kind", sorted(LONG_RUN_NOISE))
    def test_long_1q_runs_match_interpreter(self, kind):
        # 300-gate runs per wire fuse into one superoperator each, with
        # noise on every gate and on both qubits of each CX.
        noise = LONG_RUN_NOISE[kind]()
        gates = _long_run_circuit().gates
        assert all(noise.noisy_qubits(g) == g.qubits for g in gates
                   if g.name == "cx")
        rho, oracle = _long_run_states(kind)
        assert np.abs(rho - oracle).max() <= 1e-12

    @pytest.mark.parametrize("kind", sorted(LONG_RUN_NOISE))
    def test_state_is_a_density_matrix(self, kind):
        rho, _ = _long_run_states(kind)
        assert abs(np.trace(rho) - 1.0) <= 1e-12
        assert np.abs(rho - rho.conj().T).max() <= 1e-12

    def test_empty_circuit_is_the_zero_state(self):
        rho = DensityMatrixBackend(program_cache=ProgramCache()).run(
            Circuit(3), NoiseModel.non_pauli_gates(1e-3)
        ).rho
        expected = np.zeros((8, 8), dtype=complex)
        expected[0, 0] = 1.0
        assert np.array_equal(rho, expected)

    def test_repeated_runs_are_bit_identical(self):
        c = _random_circuit(4, 200, 7)
        noise = NoiseModel.from_target(_HETEROGENEOUS_TARGET)
        cache = ProgramCache()
        first = DensityMatrixBackend(program_cache=cache).run(c, noise).rho
        again = DensityMatrixBackend(program_cache=cache).run(c, noise).rho
        fresh = DensityMatrixBackend(program_cache=ProgramCache()).run(
            c, noise
        ).rho
        assert first.tobytes() == again.tobytes() == fresh.tobytes()

    def test_1q_runs_fuse_into_one_contraction_per_qubit(self, monkeypatch):
        from repro.sim.backends import density

        calls = []
        apply = density._apply_superop

        def counted(rho, s, qubits, n):
            calls.append(qubits)
            return apply(rho, s, qubits, n)

        monkeypatch.setattr(density, "_apply_superop", counted)
        rng = random.Random(3)
        c = Circuit(3)
        for _ in range(300):
            c.append(rng.choice(["h", "t", "tdg", "s", "x"]), rng.randrange(3))
        noise = NoiseModel.non_pauli_gates(1e-3)
        rho = DensityMatrixBackend(program_cache=ProgramCache()).run(
            c, noise
        ).rho
        assert len(calls) <= 3
        assert np.abs(rho - _interpret_density(c, noise)).max() <= 1e-12

    def test_compiles_once_and_shares_the_mps_entry(self):
        cache = ProgramCache()
        c = _test_circuit()
        noise = NoiseModel.non_pauli_gates(0.01)
        DensityMatrixBackend(program_cache=cache).run(c, noise)
        assert (cache.hits, cache.misses) == (0, 1)
        DensityMatrixBackend(program_cache=cache).run(c, noise)
        assert (cache.hits, cache.misses) == (1, 1)
        MPSBackend(trajectories=2, program_cache=cache).run(c, noise)
        assert (cache.hits, cache.misses, len(cache)) == (2, 1, 1)

    @pytest.mark.parametrize("backend", ["auto", "density"])
    def test_select_backend_passes_program_cache(self, backend):
        cache = ProgramCache()
        noise = NoiseModel.non_pauli_gates(0.01)
        sim = select_backend(3, noise, backend=backend, program_cache=cache)
        assert sim.name == "density" and sim.program_cache is cache


def _run_chunk_ungrouped(program, uniforms):
    """The trajectory engine's chunk loop with one state per trajectory.

    Its execution path before trajectories shared rows, kept as the
    byte-identity oracle for the grouped engine: every operator acts on
    all ``k`` states, and each non-identity mixture outcome is applied
    to the trajectories that drew it.
    """
    k = uniforms.shape[0]
    n = program.n_qubits
    states = np.zeros((k,) + (2,) * n, dtype=complex)
    states[(slice(None),) + (0,) * n] = 1.0
    choices = program.sample_choices(uniforms)
    for ops, events in program.layers:
        for op in ops:
            states = _apply_matrix_batch(states, op.matrix, op.qubits)
        for ev in events:
            if ev.mixture is None:
                states = _apply_kraus_general(
                    states, ev.kraus, ev.qubit, uniforms[:, ev.column]
                )
                continue
            choice = choices[:, ev.column]
            for i, u in enumerate(ev.mixture.unitaries):
                if i == ev.mixture.identity_index:
                    continue
                rows = np.nonzero(choice == i)[0]
                if rows.size:
                    states[rows] = _apply_1q_batch(states[rows], u, ev.qubit)
    return states.reshape(k, -1)


class _UngroupedBackend(StatevectorTrajectoryBackend):
    """The engine's uniforms around the oracle loop, a chunk of
    trajectories at a time, one row per trajectory."""

    def _run_program(self, program):
        uniforms = self._uniforms(program)
        k, size = uniforms.shape[0], self.chunk_size
        states = [
            _run_chunk_ungrouped(program, uniforms[lo : lo + size])
            for lo in range(0, k, size)
        ]
        return states, np.arange(k)


TRAJECTORY_NOISE = {
    "non_pauli_1e-4": lambda: NoiseModel.non_pauli_gates(1e-4),
    "non_pauli_1e-3": lambda: NoiseModel.non_pauli_gates(1e-3),
    "non_pauli_5e-2": lambda: NoiseModel.non_pauli_gates(5e-2),
    "t_only_1e-2": lambda: NoiseModel.t_gates_only(1e-2),
    "heterogeneous": lambda: NoiseModel.from_target(_HETEROGENEOUS_TARGET),
    "idle": lambda: NoiseModel.with_idle(
        NoiseModel.non_pauli_gates(1e-3), 0.01
    ),
    "amplitude_damping": lambda: NoiseModel(
        0.02, NoiseModel.non_pauli_gates(0.02).applies_to,
        kraus=_damping_kraus,
    ),
}


def _max_live_rows(monkeypatch, backend, circuit, noise):
    """Run ``backend`` and return its states and the most rows any
    operator was applied to."""
    from repro.sim.backends import statevector

    widths = []
    apply = statevector._apply_matrix_batch

    def counted(states, m, qubits):
        widths.append(states.shape[0])
        return apply(states, m, qubits)

    monkeypatch.setattr(statevector, "_apply_matrix_batch", counted)
    states = backend.run(circuit, noise).states
    return states, max(widths)


def _erring_trajectories(backend, circuit, noise):
    """How many trajectories draw a non-identity outcome at some event."""
    program = compile_program(circuit, noise, fused=True)
    uniforms = np.stack([
        np.random.default_rng([backend.seed, t]).random(program.n_events)
        for t in range(backend.trajectories)
    ])
    choices = program.sample_choices(uniforms)
    erred = np.zeros(backend.trajectories, dtype=bool)
    for _, events in program.layers:
        for ev in events:
            erred |= choices[:, ev.column] != ev.mixture.identity_index
    return int(erred.sum())


class TestGroupedTrajectories:
    """Trajectories sharing state rows give the one-state-per-trajectory
    engine's states, bit for bit."""

    @pytest.mark.parametrize("kind", sorted(TRAJECTORY_NOISE))
    @given(
        n_qubits=st.integers(4, 7),
        n_gates=st.integers(40, 200),
        trajectories=st.integers(1, 40),
        chunk_size=st.integers(1, 64),
        max_workers=st.sampled_from([1, 2]),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=12, deadline=None)
    def test_matches_ungrouped_oracle(
        self, kind, n_qubits, n_gates, trajectories, chunk_size,
        max_workers, seed,
    ):
        c = _random_circuit(n_qubits, n_gates, seed, idle=kind == "idle")
        noise = TRAJECTORY_NOISE[kind]()
        options = dict(
            trajectories=trajectories, seed=seed, chunk_size=chunk_size,
            max_workers=max_workers, program_cache=ProgramCache(),
        )
        got = StatevectorTrajectoryBackend(**options).run(c, noise).states
        want = _UngroupedBackend(**options).run(c, noise).states
        assert np.array_equal(got, want)

    def test_rows_track_only_the_trajectories_that_erred(self, monkeypatch):
        c = _random_circuit(6, 400, 5)
        noise = NoiseModel.non_pauli_gates(1e-4)
        backend = StatevectorTrajectoryBackend(
            trajectories=200, seed=2, chunk_size=200,
            program_cache=ProgramCache(),
        )
        erring = _erring_trajectories(backend, c, noise)
        states, rows = _max_live_rows(monkeypatch, backend, c, noise)
        assert erring >= 3
        assert 1 < rows <= 1 + erring
        want = _UngroupedBackend(
            trajectories=200, seed=2, chunk_size=200,
            program_cache=ProgramCache(),
        ).run(c, noise).states
        assert np.array_equal(states, want)

    @pytest.mark.parametrize("kind", ["non_pauli_5e-2", "amplitude_damping"])
    def test_live_rows_never_exceed_the_chunk(self, monkeypatch, kind):
        c = _random_circuit(5, 300, 9)
        backend = StatevectorTrajectoryBackend(
            trajectories=24, seed=4, chunk_size=8,
            program_cache=ProgramCache(),
        )
        _, rows = _max_live_rows(monkeypatch, backend, c, TRAJECTORY_NOISE[kind]())
        assert rows <= 8

    def test_split_copies_partial_rows_and_keeps_drained_ones(self):
        from repro.sim.backends.statevector import _HistoryRows

        rows = _HistoryRows.start(6, 1)
        x, z = np.array([[0, 1], [1, 0]]), np.diag([1.0, -1.0])
        # Trajectories 0 and 1 draw X: a partial pair copies row 0.
        rows.mixture_event(np.array([0, 1]), np.array([1, 1]), [None, x], 0)
        assert rows.counts.tolist() == [4, 2]
        assert rows.row.tolist() == [1, 1, 0, 0, 0, 0]
        # Both members of row 1 draw Z: the pair covers it, in place.
        rows.mixture_event(np.array([0, 1]), np.array([1, 1]), [None, z], 0)
        assert rows.counts.tolist() == [4, 2]
        # Row 0 splits two ways with no member left behind: the first
        # pair gets a new row and the last keeps row 0, so no row empties.
        rows.mixture_event(
            np.array([2, 3, 4, 5]), np.array([1, 1, 2, 2]), [None, x, z], 0
        )
        assert rows.counts.tolist() == [2, 2, 2]
        assert rows.row.tolist() == [1, 1, 2, 2, 0, 0]
        got = rows.states.reshape(3, -1)[rows.row]
        assert np.array_equal(got[:2], [[0, -1]] * 2)
        assert np.array_equal(got[2:4], [[0, 1]] * 2)
        assert np.array_equal(got[4:], [[1, 0]] * 2)

    def test_halving_moves_upper_rows_with_their_trajectories(self):
        from repro.sim.backends.statevector import _HistoryRows

        rows = _HistoryRows.start(6, 1)
        x, z = np.array([[0, 1], [1, 0]]), np.diag([1.0, -1.0])
        rows.mixture_event(
            np.array([1, 2, 4]), np.array([1, 2, 1]), [None, x, z], 0
        )
        assert rows.row.tolist() == [0, 1, 2, 0, 1, 0]
        upper = rows.halve()
        assert rows.row.tolist() == [0, -1, -1, 0, -1, 0]
        assert upper.row.tolist() == [-1, 0, 1, -1, 0, -1]
        assert rows.counts.tolist() == [3]
        assert upper.counts.tolist() == [2, 1]
        assert np.array_equal(upper.states.reshape(2, -1), [[0, 1], [1, 0]])
        # An event reaches only the block's own trajectories.
        upper.mixture_event(np.array([0, 2]), np.array([1, 1]), [None, x], 0)
        assert upper.counts.tolist() == [2, 1]
        assert np.array_equal(upper.states.reshape(2, -1), [[0, 1], [0, 1]])

    @pytest.mark.parametrize("kind", ["non_pauli_1e-3", "non_pauli_5e-2"])
    @pytest.mark.parametrize("chunk_size,max_workers", [(7, 1), (7, 2), (64, 1)])
    def test_rows_are_the_distinct_histories(self, kind, chunk_size, max_workers):
        c = _random_circuit(6, 300, 3)
        noise = TRAJECTORY_NOISE[kind]()
        backend = StatevectorTrajectoryBackend(
            trajectories=120, seed=8, chunk_size=chunk_size,
            max_workers=max_workers, program_cache=ProgramCache(),
        )
        program = compile_program(c, noise, fused=True)
        choices = program.sample_choices(backend._uniforms(program))
        histories = np.unique(choices, axis=0).shape[0]
        result = backend.run(c, noise)
        assert sum(b.shape[0] for b in result.blocks) == histories
        assert all(b.shape[0] <= chunk_size for b in result.blocks)
        assert np.array_equal(
            result.states,
            _UngroupedBackend(
                trajectories=120, seed=8, program_cache=ProgramCache(),
            ).run(c, noise).states,
        )

    def test_block_queue_under_many_workers(self):
        # More workers than cores and a short switch interval: a lost
        # update to the shared block queue would drop, repeat or strand
        # a block.
        import sys
        import threading

        c = _random_circuit(5, 200, 21)
        noise = TRAJECTORY_NOISE["non_pauli_5e-2"]()
        got = {}

        def run():
            got["result"] = StatevectorTrajectoryBackend(
                trajectories=64, seed=3, chunk_size=2, max_workers=8,
                program_cache=ProgramCache(),
            ).run(c, noise)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker = threading.Thread(target=run)
            worker.start()
            worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive()
        result = got["result"]
        assert len(result.blocks) > 8
        want = _UngroupedBackend(
            trajectories=64, seed=3, program_cache=ProgramCache(),
        ).run(c, noise).states
        assert np.array_equal(result.states, want)

    def test_peak_memory_within_memory_bytes(self):
        self._check_peak_memory(max_workers=1)

    def test_peak_memory_within_memory_bytes_two_workers(self):
        # Each worker with a block in flight holds its own operator
        # transients.
        self._check_peak_memory(max_workers=2)

    def _check_peak_memory(self, max_workers):
        # Nearly every trajectory diverges at 1e-2 on this shape.
        import tracemalloc

        from repro.bench.sim_suite import _clifford_t_circuit

        c = _clifford_t_circuit(10, 700, seed=19)
        noise = NoiseModel.non_pauli_gates(1e-2)
        backend = StatevectorTrajectoryBackend(
            trajectories=200, seed=7, max_workers=max_workers,
            program_cache=ProgramCache(),
        )
        backend.run(c, noise)  # compiles the program outside the window
        tracemalloc.start()
        try:
            result = backend.run(c, noise)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(np.unique(result.row)) > 190
        assert peak <= backend.memory_bytes(10)


def _pinned_damping(g):
    return NoiseModel(
        g, NoiseModel.non_pauli_gates(g).applies_to, kraus=_damping_kraus
    )


class TestPinnedTrajectoryFidelities:
    """Seeded statevector fidelities and standard errors, pinned as
    ``float.hex`` from the one-state-per-trajectory engine."""

    PINNED = {
        "non_pauli_1e-4": (
            lambda: NoiseModel.non_pauli_gates(1e-4),
            "0x1.f1eb851eb8421p-1", "0x1.72e2c6b51ac7fp-7",
        ),
        "t_only_1e-2": (
            lambda: NoiseModel.t_gates_only(1e-2),
            "0x1.1a1f45d5663a5p-2", "0x1.f57241788db48p-6",
        ),
        "amplitude_damping": (
            lambda: _pinned_damping(2e-3),
            "0x1.60c3897428b33p-1", "0x1.03ddf42141823p-5",
        ),
    }

    @pytest.mark.parametrize("kind", sorted(PINNED))
    def test_pinned(self, kind):
        from repro.bench.sim_suite import _clifford_t_circuit

        noise, fidelity, std_error = self.PINNED[kind]
        c = _clifford_t_circuit(9, 450, seed=23)
        psi = c.statevector()
        result = StatevectorTrajectoryBackend(
            trajectories=200, seed=7, chunk_size=48,
            program_cache=ProgramCache(),
        ).run(c, noise())
        assert result.fidelity(psi).hex() == fidelity
        assert result.fidelity_std_error(psi).hex() == std_error

    #: 10 qubits, 700 gates, default chunks; at 1e-2 nearly every
    #: trajectory diverges.
    PINNED_10Q = {
        "non_pauli_1e-4": (
            lambda: NoiseModel.non_pauli_gates(1e-4),
            "0x1.e4809b526d74dp-1", "0x1.034a4ddcf464dp-6",
        ),
        "non_pauli_1e-2": (
            lambda: NoiseModel.non_pauli_gates(1e-2),
            "0x1.1c80841ef9b64p-7", "0x1.4f5d247136ae4p-8",
        ),
        "amplitude_damping": (
            lambda: _pinned_damping(2e-3),
            "0x1.fd0453cc7d112p-2", "0x1.193851cec1fb1p-5",
        ),
    }

    @pytest.mark.parametrize("max_workers", [1, 2])
    @pytest.mark.parametrize("kind", sorted(PINNED_10Q))
    def test_pinned_10_qubits(self, kind, max_workers):
        from repro.bench.sim_suite import _clifford_t_circuit

        noise, fidelity, std_error = self.PINNED_10Q[kind]
        c = _clifford_t_circuit(10, 700, seed=19)
        psi = c.statevector()
        result = StatevectorTrajectoryBackend(
            trajectories=200, seed=7, max_workers=max_workers,
            program_cache=ProgramCache(),
        ).run(c, noise())
        assert result.fidelity(psi).hex() == fidelity
        assert result.fidelity_std_error(psi).hex() == std_error


class TestSingleTrajectoryStdError:
    """One sampled trajectory has no standard error; a deterministic
    run's is exactly 0."""

    NOISE = NoiseModel.non_pauli_gates(0.05)

    @pytest.mark.parametrize("engine", [
        StatevectorTrajectoryBackend, MPSBackend,
    ], ids=["statevector", "mps"])
    def test_one_noisy_trajectory_has_none(self, engine):
        c = _test_circuit()
        result = engine(trajectories=1, seed=3).run(c, self.NOISE)
        assert result.n_trajectories == 1
        assert result.fidelity_std_error(c.statevector()) is None

    @pytest.mark.parametrize("engine", [
        StatevectorTrajectoryBackend, MPSBackend,
    ], ids=["statevector", "mps"])
    def test_noiseless_run_is_exact(self, engine):
        c = _test_circuit()
        result = engine(trajectories=1, seed=3).run(c)
        assert result.fidelity_std_error(c.statevector()) == 0.0

    @pytest.mark.parametrize("backend", ["statevector", "mps"])
    def test_summary_prints_no_error_bar(self, backend):
        c = _test_circuit()
        ev = evaluate_fidelity(
            c, noise=self.NOISE, backend=backend, trajectories=1, seed=3
        )
        assert ev.std_error is None and "+/-" not in ev.summary()
        assert "+/-" in evaluate_fidelity(
            c, noise=self.NOISE, backend=backend, trajectories=4, seed=3
        ).summary()


class TestArgumentValidation:
    """Bad rates and chunk sizes used to run silently."""

    @pytest.mark.parametrize("kwargs", [
        {"rate": -0.1},
        {"rate": float("nan")},
        {"rate": 1e-3, "idle_rate": -1.0},
        {"rate": 1e-3, "idle_rate": float("nan")},
        {"rate": 1e-3, "rates": {"t": -1e-3}},
        {"rate": 1e-3, "rates": {"t": float("nan")}},
        {"rate": 1e-3, "edge_rates": {(0, 1): -0.2}},
        {"rate": 1e-3, "edge_rates": {(0, 1): float("nan")}},
    ], ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
    def test_bad_noise_rate_rejected_at_construction(self, kwargs):
        with pytest.raises(ValueError, match="non-negative"):
            NoiseModel(applies_to=lambda g: True, **kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"rates": {"t": 0.2}},
        {"edge_rates": {(0, 1): 0.2}},
        {"idle_rate": 0.1},
    ], ids=["rates", "edge_rates", "idle_rate"])
    def test_zero_rate_with_positive_entry_rejected(self, kwargs):
        # Every engine skips noise when ``rate`` is 0, so these models
        # used to simulate noiselessly whatever their tables said.
        with pytest.raises(ValueError, match="largest rate"):
            NoiseModel(0.0, lambda g: True, **kwargs)
        assert NoiseModel(0.0, lambda g: True, rates={"t": 0.0}).rate == 0.0

    @pytest.mark.parametrize("rate", [-0.1, float("nan")])
    def test_factories_reject(self, rate):
        with pytest.raises(ValueError, match="rate"):
            NoiseModel.non_pauli_gates(rate)
        with pytest.raises(ValueError, match="rate"):
            NoiseModel.t_gates_only(rate)

    def test_with_idle_rejects_nan(self):
        # A non-positive idle rate returns the base model unchanged.
        base = NoiseModel.t_gates_only(1e-3)
        assert NoiseModel.with_idle(base, -0.1) is base
        with pytest.raises(ValueError, match="idle_rate"):
            NoiseModel.with_idle(base, float("nan"))

    def test_rate_zero_and_above_one_construct(self):
        assert NoiseModel.non_pauli_gates(0.0).rate == 0.0
        # Rates above 1 fail where the channel is built instead.
        noise = NoiseModel.non_pauli_gates(1.5)
        with pytest.raises(ValueError, match="depolarizing rate"):
            DensityMatrixBackend(program_cache=ProgramCache()).run(
                Circuit(1).h(0), noise
            )

    @pytest.mark.parametrize("chunk_size", [0, -3])
    def test_statevector_rejects_bad_chunk_size(self, chunk_size):
        with pytest.raises(ValueError, match="chunk_size"):
            StatevectorTrajectoryBackend(chunk_size=chunk_size)


class TestCodeDistanceGuard:
    """Regression: an unmeetable budget raises instead of returning 99+."""

    def test_unmeetable_budget_raises(self):
        from repro.resources import SurfaceCodeModel

        model = SurfaceCodeModel(physical_error_rate=9.9e-3)
        with pytest.raises(ValueError, match="distance"):
            model.code_distance(1e-300, 100, 10**9)

    def test_normal_budget_still_works(self):
        from repro.resources import SurfaceCodeModel

        d = SurfaceCodeModel().code_distance(1e-6, 10, 1000)
        assert d % 2 == 1 and 3 <= d <= 99


def _dag_layers(circuit) -> list[list[tuple[int, Gate]]]:
    """The layering oracle: ``CircuitDAG.as_layers()`` on a fresh DAG,
    whose node ids are gate positions."""
    from repro.circuits import CircuitDAG

    return [
        [(n.id, n.gate) for n in layer]
        for layer in CircuitDAG.from_circuit(circuit).as_layers()
    ]


@st.composite
def _random_gate_streams(draw):
    n = draw(st.integers(1, 5))
    c = Circuit(n)
    for _ in range(draw(st.integers(0, 40))):
        if n > 1 and draw(st.booleans()):
            a, b = draw(st.permutations(range(n)))[:2]
            c.append(draw(st.sampled_from(["cx", "cz", "swap"])), (a, b))
        elif draw(st.booleans()):
            c.append(draw(st.sampled_from(["h", "t", "s", "x"])),
                      draw(st.integers(0, n - 1)))
        else:
            c.append("rz", draw(st.integers(0, n - 1)),
                     (draw(st.floats(-3.0, 3.0)),))
    return c


class TestScheduleCache:
    def _circuit(self):
        from repro.circuits import Circuit

        c = Circuit(2)
        c.append("h", 0)
        c.append("cx", (0, 1))
        c.append("t", 1)
        return c

    def test_content_keyed_hit(self):
        from repro.sim.backends import ScheduleCache, gate_schedule

        cache = ScheduleCache()
        a = gate_schedule(self._circuit(), cache=cache)
        b = gate_schedule(self._circuit(), cache=cache)
        assert a is b
        assert cache.stats() == {
            "hits": 1, "misses": 1, "entries": 1, "maxsize": 128,
        }

    def test_schedule_matches_uncached_semantics(self):
        from repro.circuits import CircuitDAG
        from repro.sim.backends import ScheduleCache, gate_schedule

        c = self._circuit()
        got = gate_schedule(c, cache=ScheduleCache())
        want = [
            [(n.id, n.gate) for n in layer]
            for layer in CircuitDAG.from_circuit(c).as_layers()
        ]
        assert [list(layer) for layer in got] == want

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_wire_scan_equals_dag_layers(self, data):
        from repro.sim.backends import ScheduleCache, gate_schedule

        c = data.draw(_random_gate_streams())
        got = gate_schedule(c, cache=ScheduleCache())
        assert [list(layer) for layer in got] == _dag_layers(c)

    def test_lru_eviction_and_clear(self):
        from repro.circuits import Circuit
        from repro.sim.backends import ScheduleCache, gate_schedule

        cache = ScheduleCache(maxsize=2)
        for k in range(4):
            c = Circuit(1)
            c.append("rz", 0, (float(k),))
            gate_schedule(c, cache=cache)
        assert len(cache) == 2
        assert cache.stats()["misses"] == 4
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["hits"] == 0

    def test_global_cache_default(self):
        from repro.sim.backends import gate_schedule, schedule_cache

        cache = schedule_cache()
        before = cache.stats()["misses"]
        c = self._circuit()
        c.append("rz", 0, (0.12345,))
        gate_schedule(c)
        assert cache.stats()["misses"] == before + 1

    def test_maxsize_validated(self):
        from repro.sim.backends import ScheduleCache

        with pytest.raises(ValueError):
            ScheduleCache(maxsize=0)

    def test_backend_results_unchanged_by_cache(self):
        from repro.sim import NoiseModel
        from repro.sim.backends import schedule_cache
        from repro.sim.backends.statevector import (
            StatevectorTrajectoryBackend,
        )

        c = self._circuit()
        ref = c.statevector()
        noise = NoiseModel.non_pauli_gates(0.02)
        kw = dict(trajectories=8, seed=7)
        first = StatevectorTrajectoryBackend(**kw).run(c, noise)
        schedule_cache().clear()
        cold = StatevectorTrajectoryBackend(**kw).run(c, noise)
        warm = StatevectorTrajectoryBackend(**kw).run(c, noise)
        assert cold.fidelity(ref) == pytest.approx(
            first.fidelity(ref), abs=1e-12
        )
        assert warm.fidelity(ref) == pytest.approx(
            cold.fidelity(ref), abs=1e-12
        )
