"""Tests for the pluggable simulation backends and the sim bugfixes."""

import math
import random
from types import SimpleNamespace

import numpy as np
import pytest

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
    DensityMatrixBackend,
    MPSBackend,
    StatevectorTrajectoryBackend,
)
from repro.sim.fidelity import choi_of_sequence
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


class TestDensityProgram:
    """The density engine runs the compiled program, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("kind", sorted(DENSITY_NOISE))
    def test_byte_identical_to_interpreter(self, kind, seed):
        noise = DENSITY_NOISE[kind]()
        c = _random_circuit(4, 80, seed, idle=kind.startswith("idle"))
        rho = DensityMatrixBackend(program_cache=ProgramCache()).run(
            c, noise
        ).rho
        assert np.array_equal(rho, _interpret_density(c, noise))

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
