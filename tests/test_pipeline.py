"""Pass/pipeline invariants: unitary preservation and composition laws."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from repro.bench_circuits import full_suite
from repro.circuits import Circuit, rotation_count
from repro.circuits.circuit import Gate
from repro.experiments.workflows import matched_thresholds
from repro.linalg import trace_distance
from repro.pipeline import (
    BASES,
    CancelInversePairs,
    CommuteRotations,
    DecomposeToRzBasis,
    FunctionPass,
    IsolateU3,
    MergeRuns,
    PassManager,
    SnapTrivialRotations,
    SynthesisCache,
    best_preset_lowering,
    best_preset_lowerings,
    compile_batch,
    compile_circuit,
    iter_presets,
    preset_pipeline,
)
import repro.pipeline.batch as batch_mod
from repro.pipeline.presets import _PassMemo, _preset_grid
from repro.synthesis import allocate_eps_budget
from repro.target import Target, route_circuit
from repro.transpiler import (
    cancel_inverse_pairs,
    merge_1q_runs,
    snap_trivial_rotations,
    transpile,
)

ALL_PASSES = [
    MergeRuns(),
    CommuteRotations(),
    CancelInversePairs(),
    SnapTrivialRotations(),
    DecomposeToRzBasis(),
    IsolateU3(),
]


def _random_circuit(seed: int, n: int = 3, depth: int = 25) -> Circuit:
    rng = np.random.default_rng(seed)
    c = Circuit(n)
    for _ in range(depth):
        r = rng.random()
        if r < 0.35:
            c.append(
                ["h", "s", "t", "x", "sdg"][int(rng.integers(5))],
                int(rng.integers(n)),
            )
        elif r < 0.7:
            c.append(
                ["rz", "rx", "ry"][int(rng.integers(3))],
                int(rng.integers(n)),
                (float(rng.uniform(0, 2 * math.pi)),),
            )
        else:
            a, b = rng.choice(n, 2, replace=False)
            c.cx(int(a), int(b))
    return c


class TestPassInvariants:
    @pytest.mark.parametrize("p", ALL_PASSES, ids=lambda p: p.name)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pass_preserves_unitary(self, p, seed):
        c = _random_circuit(seed)
        out = p.run(c)
        assert trace_distance(c.unitary(), out.unitary()) < 1e-7

    @pytest.mark.parametrize("p", ALL_PASSES, ids=lambda p: p.name)
    def test_pass_does_not_mutate_input(self, p):
        c = _random_circuit(3)
        before = list(c.gates)
        p.run(c)
        assert c.gates == before

    @pytest.mark.parametrize("basis", ["u3", "rz"])
    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    @pytest.mark.parametrize("commutation", [False, True])
    def test_preset_preserves_unitary(self, basis, level, commutation):
        c = _random_circuit(7)
        out = preset_pipeline(basis, level, commutation).run(c)
        assert trace_distance(c.unitary(), out.unitary()) < 1e-7


def _exact(circuit: Circuit) -> tuple:
    """A circuit's content with every parameter's type and bits."""
    return (
        circuit.n_qubits,
        circuit.name,
        [
            (g.name, g.qubits,
             tuple((type(x).__name__, float(x).hex()) for x in g.params))
            for g in circuit.gates
        ],
    )


def _unshared_grid(circuit, bases, commutation, validate="off"):
    """Each preset's own ``PassManager.run``, with nothing shared."""
    return [
        _exact(pm.run(circuit))
        for basis in bases
        for _, comm, pm in iter_presets(basis, validate=validate)
        if commutation is None or comm == commutation
    ]


def _unshared_best(circuit, basis):
    best = None
    for _, _, pm in iter_presets(basis):
        cand = pm.run(circuit)
        n = rotation_count(cand)
        if best is None or n < best[0]:
            best = (n, cand)
    return _exact(best[1])


class TestSharedPresetGrid:
    """The preset grid's shared pass memo changes no lowering."""

    @pytest.mark.parametrize("commutation", [None, False, True])
    @pytest.mark.parametrize("seed", [0, 3, 8])
    def test_grid_equals_unshared_runs(self, seed, commutation):
        c = _random_circuit(seed, n=4, depth=40)
        got = [
            _exact(low) for _, low in _preset_grid(c, BASES, commutation)
        ]
        assert got == _unshared_grid(c, BASES, commutation)

    @pytest.mark.parametrize("commutation", [None, True])
    def test_grid_equals_unshared_runs_under_full_validation(
        self, commutation
    ):
        c = _random_circuit(4, n=3, depth=20)
        got = [
            _exact(low)
            for _, low in _preset_grid(c, BASES, commutation, "full")
        ]
        assert got == _unshared_grid(c, BASES, commutation, "full")

    def test_every_step_is_contract_checked(self, monkeypatch):
        from repro.analysis.contracts import ContractChecker

        steps = []
        orig = ContractChecker.after_pass

        def counting(self, p, before, after):
            steps.append(p.name)
            return orig(self, p, before, after)

        monkeypatch.setattr(ContractChecker, "after_pass", counting)
        c = _random_circuit(2, n=3, depth=15)
        list(_preset_grid(c, BASES, None, "structural"))
        assert len(steps) == sum(
            len(pm) for basis in BASES for _, _, pm in iter_presets(basis)
        )

    def test_best_lowerings_equal_per_basis_search(self):
        c = _random_circuit(6, n=4, depth=40)
        u3, rz = best_preset_lowerings(c, ("u3", "rz"))
        assert _exact(u3) == _unshared_best(c, "u3")
        assert _exact(rz) == _unshared_best(c, "rz")
        assert _exact(best_preset_lowering(c, "rz")) == _exact(rz)

    @pytest.mark.parametrize("other", [-0.0, 0])
    def test_equal_but_distinct_params_are_not_conflated(self, other):
        # ``==`` conflates 0.0 with -0.0 and with 0, yet a pass that
        # keeps parameters keeps the difference.
        a = Circuit(1, [Gate("u3", (0,), (0.3, 0.0, 0.5))])
        b = Circuit(1, [Gate("u3", (0,), (0.3, other, 0.5))])
        pm = PassManager([CancelInversePairs()])
        memo = _PassMemo()
        out_a, out_b = memo.run(pm, a), memo.run(pm, b)
        assert _exact(out_a) == _exact(pm.run(a))
        assert _exact(out_b) == _exact(pm.run(b)) != _exact(out_a)

    def test_matched_thresholds_runs_each_shared_pass_once(
        self, monkeypatch
    ):
        runs = []
        orig = PassManager._run_pass

        def counting(p, work, checker):
            runs.append(p.name)
            return orig(p, work, checker)

        monkeypatch.setattr(PassManager, "_run_pass", staticmethod(counting))
        circuit = {c.name: c for c in full_suite()}["xy_n6"].circuit
        matched_thresholds(circuit)
        unshared = sum(
            len(pm) for basis in BASES for _, _, pm in iter_presets(basis)
        )
        # Each basis alone would run its whole grid of presets.
        assert 0 < len(runs) < unshared / 2

    def test_unknown_basis_raises(self):
        with pytest.raises(ValueError):
            best_preset_lowerings(_random_circuit(0), ("u3", "zz"))

    @pytest.mark.slow
    def test_full_suite_grid_equals_unshared_runs(self):
        for case in full_suite():
            got = [_exact(low) for _, low in _preset_grid(case.circuit, BASES)]
            assert got == _unshared_grid(case.circuit, BASES, None), case.name


class TestPresetsMatchTranspile:
    @pytest.mark.parametrize("basis", ["u3", "rz"])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_same_gates_as_transpile(self, basis, seed):
        c = _random_circuit(seed)
        for level, commutation, pipeline in iter_presets(basis):
            via_fn = transpile(c, basis, level, commutation)
            via_pm = pipeline.run(c)
            assert via_pm.gates == via_fn.gates

    def test_preset_validation(self):
        with pytest.raises(ValueError):
            preset_pipeline("bogus")
        with pytest.raises(ValueError):
            preset_pipeline("u3", optimization_level=7)


class TestPassManager:
    def test_equals_function_composition(self):
        c = _random_circuit(11)
        pm = PassManager([
            SnapTrivialRotations(),
            CancelInversePairs(),
            MergeRuns(),
        ])
        expected = merge_1q_runs(
            cancel_inverse_pairs(snap_trivial_rotations(c))
        )
        assert pm.run(c).gates == expected.gates

    def test_append_and_function_pass(self):
        c = _random_circuit(12)
        pm = PassManager().append(
            FunctionPass(fn=lambda circ: merge_1q_runs(circ), name="merge")
        )
        assert len(pm) == 1
        assert pm.run(c).gates == merge_1q_runs(c).gates

    def test_run_detailed_metrics(self):
        c = _random_circuit(13)
        pm = preset_pipeline("u3", 2)
        res = pm.run_detailed(c)
        assert len(res.metrics) == len(pm)
        assert [m.name for m in res.metrics] == [p.name for p in pm]
        assert all(m.wall_time >= 0.0 for m in res.metrics)
        assert res.metrics[0].gates_in == len(c.gates)
        assert res.metrics[-1].gates_out == len(res.circuit.gates)
        # Chained accounting: each pass starts where the previous ended.
        for prev, cur in zip(res.metrics, res.metrics[1:]):
            assert prev.gates_out == cur.gates_in

    def test_empty_manager_is_identity(self):
        c = _random_circuit(14)
        assert PassManager().run(c).gates == c.gates


class TestCompileCircuit:
    def test_rejects_unknown_workflow(self):
        with pytest.raises(ValueError):
            compile_circuit(Circuit(1), workflow="nope")

    def test_gridsynth_end_to_end(self):
        c = _random_circuit(21, n=2, depth=12)
        res = compile_circuit(c, workflow="gridsynth", eps=0.02)
        assert res.n_rotations > 0
        assert res.total_synthesis_error <= 0.02 * res.n_rotations + 1e-12
        # Output is pure Clifford+T + CX.
        assert all(
            g.name in ("h", "s", "sdg", "t", "tdg", "x", "y", "z",
                       "cx", "cz", "swap")
            for g in res.circuit.gates
        )

    def test_fixed_level_uses_preset(self):
        c = _random_circuit(22, n=2, depth=10)
        lowered = preset_pipeline("rz", 1, False).run(c)
        via_level = compile_circuit(
            c, workflow="gridsynth", eps=0.05, optimization_level=1,
            commutation=False,
        )
        via_pre = compile_circuit(
            lowered, workflow="gridsynth", eps=0.05, pre_transpiled=True,
        )
        assert via_level.circuit.gates == via_pre.circuit.gates

    def test_batch_matches_rotation_structure(self):
        circs = [_random_circuit(s, n=2, depth=8) for s in range(3)]
        batch = compile_batch(circs, workflow="gridsynth", eps=0.05,
                              max_workers=2)
        assert len(batch) == 3
        singles = [
            compile_circuit(c, workflow="gridsynth", eps=0.05) for c in circs
        ]
        for got, want in zip(batch, singles):
            assert got.circuit.gates == want.circuit.gates


class TestSynthesizedWordSplicing:
    """``append_sequence`` and the trivial-U3 memo of ``synthesize_lowered``."""

    TOKENS = ["H", "S", "Sdg", "T", "Tdg", "X", "Y", "Z", "I"]

    def test_append_sequence_matches_validating_append(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            tokens = list(rng.choice(self.TOKENS, size=int(rng.integers(0, 30))))
            q = int(rng.integers(3))
            got, want = Circuit(3), Circuit(3)
            batch_mod.append_sequence(got, tokens, q)
            for token in reversed(tokens):
                if token != "I":
                    want.append(token.lower(), q)
            assert len(got.gates) == len(want.gates)
            assert all(a is b for a, b in zip(got.gates, want.gates))

    @pytest.mark.parametrize("qubit", [-1, 2, 7])
    def test_append_sequence_rejects_out_of_range_qubit(self, qubit):
        with pytest.raises(ValueError, match="out of range"):
            batch_mod.append_sequence(Circuit(2), ["H", "T"], qubit)

    def test_trivial_u3_words_computed_once_per_parameter_bits(self, monkeypatch):
        q4 = math.pi / 4
        params = [(q4, 0.0, q4), (2 * q4, q4, 0.0), (q4, 0.0, q4),
                  (q4, -0.0, q4), (2 * q4, q4, 0.0), (q4, 0.0, q4)]
        lowered = Circuit(2)
        for i, p in enumerate(params):
            lowered.append("u3", i % 2, p)
            lowered.cx(0, 1)
        want = Circuit(2)
        for g in lowered.gates:
            if g.name == "u3":
                batch_mod.append_sequence(
                    want, batch_mod.trivial_u3_sequence(g).gates, g.qubits[0])
            else:
                want.gates.append(g)
        calls = []
        real = batch_mod.trivial_u3_sequence

        def counting(g):
            calls.append(g.params)
            return real(g)

        monkeypatch.setattr(batch_mod, "trivial_u3_sequence", counting)
        for _ in range(2):  # the memo does not outlive a call
            calls.clear()
            got = batch_mod.synthesize_lowered(
                lowered, "u3", 0.01, _UnreachableCache(), seed=0)
            assert got.circuit.gates == want.gates
            assert got.n_rotations == 0
            # -0.0 keeps its own entry: three distinct bit patterns.
            assert len(calls) == 3
            assert [math.copysign(1, p[1]) for p in calls] == [1, 1, -1]


class _UnreachableCache(SynthesisCache):
    """A cache whose lookup fails the test: synthesis must not start."""

    def get_or(self, key, compute):
        pytest.fail(f"synthesis reached for {key!r}")


_BAD_THRESHOLDS = [float("nan"), float("inf"), 0.0, -1.0]


class TestThresholdValidation:
    """Bad ``eps``/``eps_budget`` values fail before any work starts."""

    @pytest.fixture
    def no_route_or_lower(self, monkeypatch):
        from repro.pipeline import batch

        def unreachable(*args, **kwargs):
            pytest.fail("routing or lowering reached")

        monkeypatch.setattr(batch, "_route_to_target", unreachable)
        monkeypatch.setattr(batch, "_lowerings", unreachable)

    @pytest.mark.parametrize("bad", _BAD_THRESHOLDS)
    @pytest.mark.parametrize("field", ["eps", "eps_budget"])
    def test_compile_circuit_rejects(self, field, bad, no_route_or_lower):
        c = Circuit(2)
        c.rz(0.3, 0).cx(0, 1)
        with pytest.raises(ValueError, match=f"^{field} must be"):
            compile_circuit(
                c, "gridsynth", cache=_UnreachableCache(),
                target=Target.line(2), **{field: bad},
            )

    @pytest.mark.parametrize("bad", [-1.0, 0.0, float("nan")])
    def test_rotation_free_circuit_rejects(self, bad):
        c = Circuit(1)
        c.h(0)
        with pytest.raises(ValueError, match="^eps must be"):
            compile_circuit(c, "gridsynth", eps=bad)

    @pytest.mark.parametrize("bad", _BAD_THRESHOLDS)
    @pytest.mark.parametrize("field", ["eps", "eps_budget"])
    @pytest.mark.parametrize("workers", [None, 2])
    def test_compile_batch_rejects(self, field, bad, workers):
        c = Circuit(1)
        c.rz(0.3, 0)
        with pytest.raises(ValueError, match=f"^{field} must be"):
            compile_batch(
                [c, c], "gridsynth", cache=_UnreachableCache(),
                workers=workers, **{field: bad},
            )

    @pytest.mark.parametrize("bad", _BAD_THRESHOLDS)
    def test_allocate_eps_budget_rejects(self, bad):
        c = Circuit(1)
        c.rz(0.3, 0)
        with pytest.raises(ValueError, match="accuracy budget"):
            allocate_eps_budget(c, bad)


def _pin_circuit() -> Circuit:
    c = Circuit(4, name="pin")
    c.h(0).rz(0.3, 0).cx(0, 2).rx(0.7, 2).cx(1, 3).ry(1.1, 1)
    c.t(3).cx(2, 3).rz(2.2, 3).cx(0, 3).h(1).rz(0.45, 1).cx(1, 2)
    return c


def _pin_target(kind: str):
    if kind == "none":
        return None
    grid = Target.grid(2, 3)
    if kind == "grid":
        return grid
    return dataclasses.replace(
        grid,
        gate_errors={"cx": 1e-3, "t": 2e-4, "tdg": 2e-4, "h": 5e-5,
                     "swap": 3e-3, "s": 5e-5, "sdg": 5e-5},
        gate_durations={"cx": 3.0, "swap": 9.0, "t": 4.0, "tdg": 4.0},
        edge_errors={e: 1e-3 * (i + 1)
                     for i, e in enumerate(sorted(grid.coupling.edges))},
        idle_error_rate=1e-4,
    )


def _compile_digest(result) -> str:
    """Hash of everything a compile result reports."""
    routing = result.routing
    payload = (
        [(g.name, g.qubits, tuple(float(p).hex() for p in g.params))
         for g in result.circuit.gates],
        result.n_rotations,
        float(result.total_synthesis_error).hex(),
        None if result.eps_allocation is None
        else tuple(float(e).hex() for e in result.eps_allocation),
        None if routing is None
        else (tuple(routing.permutation), routing.swaps_inserted),
        None if result.makespan is None else float(result.makespan).hex(),
        None if result.esp is None else float(result.esp).hex(),
    )
    return hashlib.sha256(repr(payload).encode()).hexdigest()[:16]


#: ``compile_circuit`` digests over (objective, target, optimization
#: level, pre_transpiled, eps_budget), recorded before routing, lowering
#: and variant selection were folded into one candidate loop.  Any
#: change to which candidate wins, or to what it reports, moves one.
PINNED_COMPILE_DIGESTS = {
    ('count', 'none', 'best', False, None): "caed8fb4f269c6f4",
    ('count', 'none', 'best', False, 0.2): "a86677ef5a4749ac",
    ('count', 'none', 'best', True, None): "28cd6d49fbf88696",
    ('count', 'none', 'best', True, 0.2): "8520cc009cb85a30",
    ('count', 'none', 2, False, None): "5223650c44fd483a",
    ('count', 'none', 2, False, 0.2): "a3f22b0050cf8379",
    ('count', 'none', 2, True, None): "28cd6d49fbf88696",
    ('count', 'none', 2, True, 0.2): "8520cc009cb85a30",
    ('count', 'grid', 'best', False, None): "7b867746743129d6",
    ('count', 'grid', 'best', False, 0.2): "37ec05e6190fb607",
    ('count', 'grid', 'best', True, None): "5df49da5d212b9e7",
    ('count', 'grid', 'best', True, 0.2): "64baf68f163f1fbd",
    ('count', 'grid', 2, False, None): "2a7298118b58a79c",
    ('count', 'grid', 2, False, 0.2): "01166c3e589fe4cc",
    ('count', 'grid', 2, True, None): "5df49da5d212b9e7",
    ('count', 'grid', 2, True, 0.2): "64baf68f163f1fbd",
    ('count', 'calibrated', 'best', False, None): "0bdf3e4ce01f16e0",
    ('count', 'calibrated', 'best', False, 0.2): "371664ad8b5d6a03",
    ('count', 'calibrated', 'best', True, None): "83e4239f9fab6147",
    ('count', 'calibrated', 'best', True, 0.2): "7005fb4d17219647",
    ('count', 'calibrated', 2, False, None): "95f6e0dbc0cf551b",
    ('count', 'calibrated', 2, False, 0.2): "422e483eb58220dc",
    ('count', 'calibrated', 2, True, None): "83e4239f9fab6147",
    ('count', 'calibrated', 2, True, 0.2): "7005fb4d17219647",
    ('depth', 'none', 'best', False, None): "480170950268a594",
    ('depth', 'none', 'best', False, 0.2): "f558951c0552ff36",
    ('depth', 'none', 'best', True, None): "54e9c020c74dd4c6",
    ('depth', 'none', 'best', True, 0.2): "0ff29df6e89b3b50",
    ('depth', 'none', 2, False, None): "68538eaaa70ad3f8",
    ('depth', 'none', 2, False, 0.2): "3f538e1561d4267d",
    ('depth', 'none', 2, True, None): "54e9c020c74dd4c6",
    ('depth', 'none', 2, True, 0.2): "0ff29df6e89b3b50",
    ('depth', 'grid', 'best', False, None): "75afc253b37bf911",
    ('depth', 'grid', 'best', False, 0.2): "13a2650b980c2858",
    ('depth', 'grid', 'best', True, None): "5df49da5d212b9e7",
    ('depth', 'grid', 'best', True, 0.2): "64baf68f163f1fbd",
    ('depth', 'grid', 2, False, None): "2a7298118b58a79c",
    ('depth', 'grid', 2, False, 0.2): "01166c3e589fe4cc",
    ('depth', 'grid', 2, True, None): "5df49da5d212b9e7",
    ('depth', 'grid', 2, True, 0.2): "64baf68f163f1fbd",
    ('depth', 'calibrated', 'best', False, None): "0bdf3e4ce01f16e0",
    ('depth', 'calibrated', 'best', False, 0.2): "371664ad8b5d6a03",
    ('depth', 'calibrated', 'best', True, None): "83e4239f9fab6147",
    ('depth', 'calibrated', 'best', True, 0.2): "7005fb4d17219647",
    ('depth', 'calibrated', 2, False, None): "95f6e0dbc0cf551b",
    ('depth', 'calibrated', 2, False, 0.2): "422e483eb58220dc",
    ('depth', 'calibrated', 2, True, None): "83e4239f9fab6147",
    ('depth', 'calibrated', 2, True, 0.2): "7005fb4d17219647",
    ('esp', 'grid', 'best', False, None): "6812253fe9a8ac87",
    ('esp', 'grid', 'best', False, 0.2): "da500ecba1013ce4",
    ('esp', 'grid', 'best', True, None): "5df49da5d212b9e7",
    ('esp', 'grid', 'best', True, 0.2): "64baf68f163f1fbd",
    ('esp', 'grid', 2, False, None): "6812253fe9a8ac87",
    ('esp', 'grid', 2, False, 0.2): "da500ecba1013ce4",
    ('esp', 'grid', 2, True, None): "5df49da5d212b9e7",
    ('esp', 'grid', 2, True, 0.2): "64baf68f163f1fbd",
    ('esp', 'calibrated', 'best', False, None): "72b42d621911e356",
    ('esp', 'calibrated', 'best', False, 0.2): "4df5e90be5ab5e45",
    ('esp', 'calibrated', 'best', True, None): "83e4239f9fab6147",
    ('esp', 'calibrated', 'best', True, 0.2): "7005fb4d17219647",
    ('esp', 'calibrated', 2, False, None): "95f6e0dbc0cf551b",
    ('esp', 'calibrated', 2, False, 0.2): "422e483eb58220dc",
    ('esp', 'calibrated', 2, True, None): "83e4239f9fab6147",
    ('esp', 'calibrated', 2, True, 0.2): "7005fb4d17219647",
}


class TestCompileDigests:
    @pytest.mark.parametrize(
        "case", sorted(PINNED_COMPILE_DIGESTS, key=repr), ids=repr
    )
    def test_pinned(self, case):
        objective, target, level, pre, budget = case
        circuit = _pin_circuit()
        if pre:
            placed = route_circuit(circuit, Target.grid(2, 3)).circuit
            circuit = preset_pipeline("rz", 1).run(placed)
        result = compile_circuit(
            circuit, workflow="gridsynth", eps=0.05,
            optimization_level=level, pre_transpiled=pre,
            target=_pin_target(target), objective=objective,
            eps_budget=budget,
        )
        assert _compile_digest(result) == PINNED_COMPILE_DIGESTS[case]
