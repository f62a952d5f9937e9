"""JIT-compiled simulation programs: correctness, caching, determinism.

The contract under test: both compile recipes — fused front layers and
flat source order — compile to the programs pinned below; run by the
statevector engine, they match an independent trajectory oracle (one
dense state per trajectory, flat gate order, the same per-trajectory
uniforms) for mixture and general-Kraus channels alike; results are
byte-identical regardless of chunk size or worker count; the program
cache memoizes by content; and the batched choice sampling matches
per-event sampling element for element.
"""

import hashlib
import random

import numpy as np
import pytest

from repro.circuits.circuit import Circuit, Gate
from repro.sim import evaluate_fidelity
from repro.sim.backends import select_backend
from repro.sim.backends.density import DensityMatrixBackend
from repro.sim.backends.mps_backend import MPSBackend
from repro.sim.backends.statevector import StatevectorTrajectoryBackend
from repro.sim.noise import NoiseModel, depolarizing_kraus
from repro.sim.program import (
    ProgramCache,
    _as_unitary_mixture,
    compile_program,
    default_program_cache,
    program_key,
)
from repro.target import CouplingMap, Target


def _clifford_t_circuit(n_qubits, n_gates, seed):
    rng = random.Random(seed)
    c = Circuit(n_qubits)
    for _ in range(n_gates):
        if rng.random() < 0.8:
            c.append(
                rng.choice(["h", "t", "s", "tdg", "x"]),
                rng.randrange(n_qubits),
            )
        else:
            a = rng.randrange(n_qubits - 1)
            c.append("cx", (a, a + 1))
    return c


def _amplitude_damping(rate):
    """A non-unitary-mixture channel exercising the general Kraus path."""
    return [
        np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - rate)]], dtype=complex),
        np.array([[0.0, np.sqrt(rate)], [0.0, 0.0]], dtype=complex),
    ]


def _amp_damping_model(rate):
    return NoiseModel(
        rate,
        lambda g: g.name in ("t", "tdg"),
        kraus=_amplitude_damping,
    )


def _sv(circuit, noise, **kw):
    return StatevectorTrajectoryBackend(
        trajectories=kw.pop("trajectories", 12),
        seed=kw.pop("seed", 7),
        program_cache=ProgramCache(),
        **kw,
    ).run(circuit, noise)


def _run_recipe(circuit, noise, *, fused, **kw):
    """The statevector engine's runner on one compile recipe, as the
    ``(n_traj, 2^n)`` stack of trajectory states."""
    blocks, row = StatevectorTrajectoryBackend(
        trajectories=kw.pop("trajectories", 12),
        seed=kw.pop("seed", 7),
        **kw,
    )._run_program(compile_program(circuit, noise, fused=fused))
    return np.concatenate(blocks)[row]


def _apply(psi, m, qubits):
    k = len(qubits)
    m = m.reshape((2,) * (2 * k))
    psi = np.tensordot(m, psi, axes=(list(range(k, 2 * k)), list(qubits)))
    return np.moveaxis(psi, list(range(k)), list(qubits))


def _oracle(circuit, noise, trajectories, seed=7):
    """Independent reference: one dense state per trajectory, flat order.

    Trajectory ``t`` consumes ``default_rng([seed, t])`` uniforms one
    per noise event in gate order; unitary mixtures pick an outcome by
    ``searchsorted`` on the channel's ``cum``, general channels by the
    branch norms.
    """
    n = circuit.n_qubits
    noisy = noise is not None and noise.rate > 0
    factory = (noise.kraus or depolarizing_kraus) if noisy else None
    events = [noise.noisy_qubits(g) if noisy else () for g in circuit.gates]
    n_events = sum(len(qs) for qs in events)
    out = []
    for t in range(trajectories if n_events else 1):
        uniforms = iter(np.random.default_rng([seed, t]).random(n_events))
        psi = np.zeros((2,) * n, dtype=complex)
        psi[(0,) * n] = 1.0
        for gate, qubits in zip(circuit.gates, events):
            psi = _apply(psi, gate.matrix(), gate.qubits)
            for q in qubits:
                u = next(uniforms)
                kraus = factory(noise.rate_for(gate))
                mixture = _as_unitary_mixture(kraus)
                if mixture is not None:
                    i = np.searchsorted(mixture.cum, u, side="right")
                    psi = _apply(psi, mixture.unitaries[i], (q,))
                    continue
                branches = [_apply(psi, k, (q,)) for k in kraus]
                p = np.array([np.vdot(b, b).real for b in branches])
                i = min(np.searchsorted(np.cumsum(p / p.sum()), u),
                        len(p) - 1)
                psi = branches[i] / np.sqrt(p[i])
        out.append(psi.reshape(-1))
    return np.array(out)


class TestByteIdentity:
    """Compiled states match the independent trajectory oracle."""

    # The ids are the (fuse, fuse2q) pairs of the earlier three-level
    # grid, whose flat and fully fused levels are the two recipes.
    @pytest.mark.parametrize(
        "fused", [False, True], ids=["False-False", "True-True"]
    )
    @pytest.mark.parametrize(
        "noise_factory",
        [
            lambda: NoiseModel.t_gates_only(1e-2),
            lambda: NoiseModel.non_pauli_gates(5e-3),
            lambda: _amp_damping_model(0.05),
        ],
        ids=["mixture-t", "mixture-nonpauli", "general-kraus"],
    )
    def test_compiled_matches_reference(self, fused, noise_factory):
        circuit = _clifford_t_circuit(6, 120, seed=3)
        noise = noise_factory()
        compiled = _run_recipe(circuit, noise, fused=fused)
        assert np.allclose(compiled, _oracle(circuit, noise, 12), atol=1e-10)

    def test_noiseless_compiled_matches_reference(self):
        circuit = _clifford_t_circuit(7, 90, seed=5)
        compiled = _sv(circuit, None, trajectories=1)
        assert np.allclose(
            compiled.states, _oracle(circuit, None, 1), atol=1e-10
        )

    def test_fused_2q_preserves_the_state(self):
        # Fusion reorders float products, so exact equality is not the
        # contract across recipes — closeness to the flat gate-by-gate
        # state is.
        circuit = _clifford_t_circuit(6, 150, seed=11)
        fused = _sv(circuit, None, trajectories=1)
        plain = _run_recipe(circuit, None, fused=False, trajectories=1)
        assert np.allclose(fused.states[0], plain[0], atol=1e-10)

    def test_mps_compiled_matches_reference(self):
        # A bond cap of 16 never truncates 6 qubits (max bond 8).
        circuit = _clifford_t_circuit(6, 100, seed=9)
        for noise in (NoiseModel.t_gates_only(1e-2), _amp_damping_model(0.05)):
            result = MPSBackend(
                trajectories=4, seed=7, max_bond=16,
                program_cache=ProgramCache(),
            ).run(circuit, noise)
            assert result.truncation_error == pytest.approx(0.0, abs=1e-12)
            states = [t.to_statevector() for t in result.trajectories]
            assert np.allclose(states, _oracle(circuit, noise, 4), atol=1e-10)


class TestDeterminism:
    """Chunking and workers cannot change the states."""

    @pytest.mark.parametrize("fused", [True, False])
    def test_chunk_size_invariance(self, fused):
        circuit = _clifford_t_circuit(6, 120, seed=3)
        noise = NoiseModel.t_gates_only(1e-2)
        small = _run_recipe(circuit, noise, fused=fused, trajectories=16,
                            chunk_size=3)
        large = _run_recipe(circuit, noise, fused=fused, trajectories=16,
                            chunk_size=64)
        assert np.array_equal(small, large)

    def test_worker_count_invariance(self):
        circuit = _clifford_t_circuit(6, 120, seed=3)
        noise = NoiseModel.non_pauli_gates(2e-3)
        serial = _sv(circuit, noise, trajectories=16,
                     chunk_size=4, max_workers=1)
        parallel = _sv(circuit, noise, trajectories=16,
                       chunk_size=4, max_workers=4)
        assert np.array_equal(serial.states, parallel.states)

    def test_batched_choice_sampling_matches_per_event(self):
        circuit = _clifford_t_circuit(6, 120, seed=3)
        noise = NoiseModel.t_gates_only(1e-2)
        program = compile_program(circuit, noise, fused=True)
        uniforms = np.random.default_rng(0).random((8, program.n_events))
        choices = program.sample_choices(uniforms)
        for _, events in program.layers:
            for ev in events:
                expected = np.searchsorted(
                    ev.mixture.cum, uniforms[:, ev.column], side="right"
                )
                assert np.array_equal(choices[:, ev.column], expected)


class TestProgramCache:
    def test_hit_and_miss_counters(self):
        circuit = _clifford_t_circuit(5, 60, seed=1)
        noise = NoiseModel.t_gates_only(1e-3)
        cache = ProgramCache()
        first = cache.get(circuit, noise, fused=True)
        second = cache.get(circuit, noise, fused=True)
        assert first is second
        assert cache.stats() == {
            "hits": 1, "misses": 1, "entries": 1, "maxsize": 64,
        }

    def test_content_key_spans_equivalent_model_objects(self):
        # Two distinct model objects with identical resolved behavior
        # share a program; a rate tweak cannot hide behind object reuse.
        circuit = _clifford_t_circuit(5, 60, seed=1)
        key_a = program_key(circuit, NoiseModel.t_gates_only(1e-3),
                            fused=True)
        key_b = program_key(circuit, NoiseModel.t_gates_only(1e-3),
                            fused=True)
        key_c = program_key(circuit, NoiseModel.t_gates_only(2e-3),
                            fused=True)
        assert key_a == key_b
        assert key_a != key_c

    def test_config_participates_in_the_key(self):
        circuit = _clifford_t_circuit(5, 60, seed=1)
        noise = NoiseModel.t_gates_only(1e-3)
        cache = ProgramCache()
        cache.get(circuit, noise, fused=True)
        cache.get(circuit, noise, fused=False)
        assert cache.stats()["misses"] == 2

    def test_density_and_mps_share_the_flat_program(self):
        circuit = _clifford_t_circuit(5, 60, seed=1)
        noise = NoiseModel.t_gates_only(1e-2)
        cache = ProgramCache()
        DensityMatrixBackend(program_cache=cache).run(circuit, noise)
        MPSBackend(trajectories=2, program_cache=cache).run(circuit, noise)
        assert cache.stats()["misses"] == 1
        assert cache.stats()["hits"] == 1

    def test_lru_eviction(self):
        cache = ProgramCache(maxsize=2)
        circuits = [_clifford_t_circuit(4, 30, seed=s) for s in range(3)]
        for c in circuits:
            cache.get(c, None, fused=True)
        assert len(cache) == 2
        cache.get(circuits[0], None, fused=True)  # evicted -> recompiles
        assert cache.stats()["misses"] == 4

    def test_rejects_empty_cache(self):
        with pytest.raises(ValueError):
            ProgramCache(maxsize=0)

    def test_backend_reuses_program_across_runs(self):
        circuit = _clifford_t_circuit(5, 60, seed=1)
        noise = NoiseModel.t_gates_only(1e-2)
        cache = ProgramCache()
        backend = StatevectorTrajectoryBackend(
            trajectories=8, seed=7, program_cache=cache
        )
        first = backend.run(circuit, noise)
        second = backend.run(circuit, noise)
        assert cache.stats()["misses"] == 1
        assert cache.stats()["hits"] == 1
        assert np.array_equal(first.states, second.states)

    def test_default_cache_is_shared(self):
        assert default_program_cache() is default_program_cache()


class TestProgramStructure:
    def test_fusion_shrinks_the_op_stream(self):
        circuit = _clifford_t_circuit(8, 300, seed=2)
        noise = NoiseModel.t_gates_only(1e-3)
        plain = compile_program(circuit, noise, fused=False)
        fused = compile_program(circuit, noise, fused=True)
        assert plain.n_ops == len(plain.layers) == len(circuit.gates)
        assert fused.n_ops < plain.n_ops
        assert plain.n_events == fused.n_events

    def test_noiseless_program_has_no_events(self):
        circuit = _clifford_t_circuit(5, 40, seed=2)
        program = compile_program(circuit, None, fused=True)
        assert program.n_events == 0
        assert program.sample_choices(np.empty((1, 0))) is None


class TestThreading:
    """The program cache flows through select_backend and evaluate."""

    def test_select_backend_passes_program_options(self):
        noise = NoiseModel.t_gates_only(1e-3)
        cache = ProgramCache()
        backend = select_backend(
            6, noise, backend="statevector", trajectories=8,
            program_cache=cache,
        )
        assert backend.program_cache is cache
        mps = select_backend(
            6, noise, backend="mps", trajectories=4, program_cache=cache,
        )
        assert mps.program_cache is cache

    def test_evaluate_fidelity_identical_across_paths(self):
        # evaluate_fidelity and a direct backend run score the same
        # states against the same reference.
        circuit = _clifford_t_circuit(6, 80, seed=4)
        noise = NoiseModel.t_gates_only(1e-2)
        ev = evaluate_fidelity(
            circuit, noise=noise, backend="statevector", trajectories=8,
            seed=7, program_cache=ProgramCache(),
        )
        direct = _sv(circuit, noise, trajectories=8)
        assert ev.fidelity == direct.fidelity(circuit.statevector())


# -- pinned program digests -------------------------------------------------


def _digest_circuit(n_qubits, n_gates, seed, idle=False):
    """Clifford+T stream with long-range CXs in both orientations."""
    rng = random.Random(seed)
    c = Circuit(n_qubits)
    for _ in range(n_gates):
        r = rng.random()
        if r < 0.7:
            c.append(
                rng.choice(["h", "s", "sdg", "t", "tdg", "x", "z"]),
                rng.randrange(n_qubits),
            )
        elif idle and r < 0.8:
            c.gates.append(Gate(
                "i", (rng.randrange(n_qubits),), (rng.choice([1.0, 2.5]),)
            ))
        else:
            c.append("cx", tuple(rng.sample(range(n_qubits), 2)))
    return c


def _digest_noise(case, n_qubits):
    if case == "noiseless":
        return None
    if case == "t_gates_only":
        return NoiseModel.t_gates_only(1e-2)
    if case == "non_pauli_gates":
        return NoiseModel.non_pauli_gates(5e-3)
    if case == "from_target":
        target = Target(
            CouplingMap.line(n_qubits),
            gate_errors={"t": 2e-3, "tdg": 2e-3, "h": 5e-4, "cx": 1e-2},
            edge_errors={(0, 1): 3e-2, (2, 3): 4e-3},
        )
        return NoiseModel.from_target(target)
    if case == "idle":
        return NoiseModel.with_idle(NoiseModel.t_gates_only(1e-3), 0.02)
    assert case == "kraus"
    return NoiseModel(
        0.05, lambda g: g.name in ("t", "tdg"), kraus=_amplitude_damping
    )


def _array_bytes(a):
    a = np.asarray(a)
    return a.dtype.str.encode() + repr(a.shape).encode() + a.tobytes()


def _program_digest(program):
    """SHA-256 of a compiled program, layer by layer."""
    h = hashlib.sha256()
    h.update(repr((program.n_qubits, program.n_events)).encode())
    for ops, events in program.layers:
        h.update(b"layer")
        for op in ops:
            h.update(repr(tuple(op.qubits)).encode())
            h.update(_array_bytes(op.matrix))
        for ev in events:
            h.update(repr((ev.qubit, ev.column)).encode())
            for k in ev.kraus:
                h.update(_array_bytes(k))
            if ev.mixture is None:
                h.update(b"general")
            else:
                h.update(_array_bytes(ev.mixture.cum))
    h.update(b"groups")
    for cum, cols in program.mixture_groups:
        h.update(_array_bytes(cum))
        h.update(_array_bytes(cols))
    return h.hexdigest()[:16]


#: Digests of the statevector recipe (fused front layers) and the flat
#: recipe, recorded from the three-flag compiler at its (True, True,
#: True) and (False, False, False) settings.  Keys: (noise case,
#: n_qubits, fused).
_PINNED_DIGESTS = {
    ("noiseless", 6, True): "f2c98736dc756588",
    ("noiseless", 6, False): "a4dd14fa417f4309",
    ("noiseless", 9, True): "a585a36da47be4a8",
    ("noiseless", 9, False): "755827c035724a19",
    ("t_gates_only", 6, True): "0080763821614a52",
    ("t_gates_only", 6, False): "94a0d9ca34a14d23",
    ("t_gates_only", 9, True): "f610d2d2329b37c3",
    ("t_gates_only", 9, False): "e26b63ce2f64f9fa",
    ("non_pauli_gates", 6, True): "6b22c6082da46558",
    ("non_pauli_gates", 6, False): "2582fafd420779d5",
    ("non_pauli_gates", 9, True): "3664407079e8e768",
    ("non_pauli_gates", 9, False): "6efe31e9fc22a918",
    ("from_target", 6, True): "a9702618082d59bb",
    ("from_target", 6, False): "38d4706c0cd9450e",
    ("from_target", 9, True): "a3a7297a40037f6a",
    ("from_target", 9, False): "d635a062d45b3a3c",
    ("idle", 6, True): "928f2d59aa4cd11d",
    ("idle", 6, False): "1eb1bc9237db361a",
    ("idle", 9, True): "cd8655a772255475",
    ("idle", 9, False): "d7fcb923b3d79fa8",
    ("kraus", 6, True): "81e4c77f0825f728",
    ("kraus", 6, False): "e744d65f16be736d",
    ("kraus", 9, True): "3a802d263f52e1ae",
    ("kraus", 9, False): "2803d02d92df73b9",
}

_DIGEST_CIRCUITS = {6: (160, 1), 9: (240, 2)}


class TestProgramDigests:
    """Both recipes compile to byte-identical programs over time."""

    @pytest.mark.parametrize(
        "case,n_qubits,fused", sorted(_PINNED_DIGESTS, key=str)
    )
    def test_pinned(self, case, n_qubits, fused):
        n_gates, seed = _DIGEST_CIRCUITS[n_qubits]
        circuit = _digest_circuit(n_qubits, n_gates, seed, idle=case == "idle")
        program = compile_program(
            circuit, _digest_noise(case, n_qubits), fused=fused
        )
        assert _program_digest(program) == _PINNED_DIGESTS[
            (case, n_qubits, fused)
        ]
