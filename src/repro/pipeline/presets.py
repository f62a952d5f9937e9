"""Preset pipelines replicating the paper's transpile settings.

:func:`preset_pipeline` builds the exact pass sequence that
:func:`repro.transpiler.transpile` historically hard-coded, for both
target IRs (CX+U3 for trasyn, CX+H+Rz for gridsynth) at optimization
levels 0-3, with the optional commutation pass of Figure 6.  Level 4
goes beyond the paper: the level-3 sequence plus the commutation-aware
DAG fixpoint (cancel inverses / merge rotations / fold phases) of
:mod:`repro.optimizers.columnar`.
:func:`repro.transpiler.transpile` itself now delegates here, so the
presets *are* the reference lowering semantics.

The preset grid (every level, with and without commutation, per basis)
runs through one shared pass memo, :func:`_preset_grid`.  Presets
repeat long pass prefixes (every one starts with
``SnapTrivialRotations``, and both bases share all passes before the
basis tail), so within one grid call each pass runs once per distinct
input, keyed by the pass class and the input's content
(``n_qubits``, ``name`` and gate tuple, with floats compared bit for
bit); a preset that reaches an input already seen reuses that output.
Lowering ``noisy-warm``'s three circuits to both bases takes 48 pass
runs in place of 366, and the 187-circuit suite 4,934 in place of
22,814.  Validation is unchanged: every (preset, pass) step still gets
its own :class:`~repro.analysis.ContractChecker` hooks, and a pass that
does run goes through ``PassManager._run_pass``.
"""

from __future__ import annotations

import struct
from typing import Iterable, Iterator

from repro.circuits import Circuit, rotation_count
from repro.pipeline.passes import (
    CancelInversePairs,
    CommuteRotations,
    DagOptimize,
    DecomposeToRzBasis,
    IsolateU3,
    MergeRuns,
    Pass,
    PassManager,
    SnapTrivialRotations,
)

BASES = ("u3", "rz")
OPTIMIZATION_LEVELS = (0, 1, 2, 3, 4)

# Optimization-level cores shared by both bases (paper Section 3.4;
# level 4 adds the commutation-aware DAG fixpoint of
# :mod:`repro.optimizers.columnar` on top of the paper's level 3).
_LEVEL_PASSES: dict[int, tuple[str, ...]] = {
    0: (),
    1: ("merge",),
    2: ("cancel", "merge", "snap"),
    3: ("cancel", "merge", "snap", "cancel", "merge"),
    4: ("cancel", "merge", "snap", "cancel", "merge", "dag"),
}

_STEP_FACTORY = {
    "merge": MergeRuns,
    "cancel": CancelInversePairs,
    "snap": SnapTrivialRotations,
    "dag": DagOptimize,
}


def preset_pipeline(
    basis: str = "u3",
    optimization_level: int = 1,
    commutation: bool = False,
    validate: str = "off",
) -> PassManager:
    """The pass sequence lowering a circuit to ``basis`` at a level.

    ``basis='u3'`` ends in CX+U3 (the trasyn workflow input);
    ``basis='rz'`` ends in CX+H+Rz (the gridsynth workflow input,
    where level 4 re-runs the DAG fixpoint after lowering so phases
    fold through the freshly exposed CX/Rz stream).

    A preset only lowers: it never routes.  Compiling against a hardware
    target goes through :func:`repro.pipeline.compile_circuit`, which
    routes the circuit first and then lowers it with these presets.

    ``validate`` (``"off"``/``"structural"``/``"full"``) turns on
    contract verification between passes; see
    :class:`repro.pipeline.PassManager`.
    """
    if basis not in BASES:
        raise ValueError("basis must be 'u3' or 'rz'")
    if optimization_level not in _LEVEL_PASSES:
        raise ValueError("optimization_level must be 0..4")
    passes: list[Pass] = [SnapTrivialRotations()]
    if commutation:
        passes.append(CommuteRotations())
    passes.extend(
        _STEP_FACTORY[step]() for step in _LEVEL_PASSES[optimization_level]
    )
    if basis == "rz":
        passes.append(DecomposeToRzBasis())
        passes.append(CancelInversePairs())
        if optimization_level >= 4:
            # Fold the lowered Rz stream itself: phases merge through
            # the CX skeleton that decomposition just exposed.
            passes.append(DagOptimize())
    elif optimization_level == 0:
        # Level 0 converts each 1q gate separately — no run fusion.
        passes.append(IsolateU3())
    else:
        passes.append(MergeRuns())
    return PassManager(passes, validate=validate)


def iter_presets(
    basis: str, validate: str = "off"
) -> Iterator[tuple[int, bool, PassManager]]:
    """All (level, commutation, pipeline) presets for one target basis.

    This is the grid :func:`repro.experiments.workflows.best_transpile`
    searches to pick the fewest-rotations lowering (Section 3.4).
    """
    for level in OPTIMIZATION_LEVELS:
        for commutation in (False, True):
            yield level, commutation, preset_pipeline(
                basis, level, commutation, validate=validate
            )


class _Content:
    """A circuit's content as a memo key, hashed once.

    Exact to the bit: ``==`` on numbers conflates ``0.0`` with ``-0.0``
    (and ``1`` with ``1.0``), so parameters enter the key as their types
    and their packed IEEE doubles, never as numbers.
    """

    __slots__ = ("key", "_hash")

    def __init__(self, circuit: Circuit):
        gates = circuit.gates
        params = [x for g in gates for x in g.params]
        self.key = (
            circuit.n_qubits,
            circuit.name,
            tuple([(g.name, g.qubits, len(g.params)) for g in gates]),
            tuple(map(type, params)),
            struct.pack(f"{len(params)}d", *params),
        )
        self._hash = hash(self.key)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if not isinstance(other, _Content):
            return NotImplemented
        return self.key == other.key


class _PassMemo:
    """Pass outputs of one grid call, keyed by pass class and input."""

    def __init__(self):
        self._outputs: dict[tuple[type, _Content], Circuit] = {}
        # id(circuit) -> (circuit, content): the circuit is held so its
        # id cannot be reused while the memo lives.
        self._contents: dict[int, tuple[Circuit, _Content]] = {}

    def _content(self, circuit: Circuit) -> _Content:
        entry = self._contents.get(id(circuit))
        if entry is None:
            entry = self._contents[id(circuit)] = (
                circuit, _Content(circuit)
            )
        return entry[1]

    def run(self, pipeline: PassManager, circuit: Circuit) -> Circuit:
        """``pipeline.run(circuit)``, running only passes whose
        (class, input) pair this memo has not seen."""
        from repro.analysis.contracts import ContractChecker

        checker = ContractChecker(pipeline.validate)
        checker.check_input(circuit)
        work = circuit
        for p in pipeline:
            key = (type(p), self._content(work))
            out = self._outputs.get(key)
            if out is None:
                out = self._outputs[key] = pipeline._run_pass(
                    p, work, checker
                )
            checker.after_pass(p, work, out)
            work = out
        checker.final(work)
        return work


def _preset_grid(
    circuit: Circuit,
    bases: Iterable[str],
    commutation: bool | None = None,
    validate: str = "off",
) -> Iterator[tuple[str, Circuit]]:
    """``(basis, lowering)`` for every preset of each basis, in
    :func:`iter_presets` order, through one shared :class:`_PassMemo`.

    ``commutation`` keeps only the presets with the commutation pass
    on (``True``) or off (``False``); ``None`` keeps both.  Each
    lowering equals that preset's own ``PassManager.run(circuit)``.
    """
    memo = _PassMemo()
    for basis in bases:
        for _, comm, pipeline in iter_presets(basis, validate=validate):
            if commutation is None or comm == commutation:
                yield basis, memo.run(pipeline, circuit)


def best_preset_lowerings(
    circuit: Circuit,
    bases: Iterable[str] = BASES,
    commutation: bool | None = None,
    validate: str = "off",
) -> tuple[Circuit, ...]:
    """The fewest-rotations lowering per basis over the preset grid
    (Section 3.4), all bases sharing one pass memo.

    Per basis, the first preset in :func:`iter_presets` order with the
    fewest rotations wins.  ``commutation`` pins the commutation pass
    on/off; ``None`` searches both.  The grid lowers ``circuit`` as
    given: :func:`repro.pipeline.compile_circuit` routes before
    lowering.
    """
    bases = tuple(bases)
    best: dict[str, tuple[int, Circuit]] = {}
    # Presets often end on one shared memo output; the memo keeps every
    # candidate alive for the whole loop, so ids stay unique.
    counts: dict[int, int] = {}
    for basis, cand in _preset_grid(circuit, bases, commutation, validate):
        n = counts.get(id(cand))
        if n is None:
            n = counts[id(cand)] = rotation_count(cand)
        if basis not in best or n < best[basis][0]:
            best[basis] = (n, cand)
    if len(best) != len(set(bases)):
        # Reachable only when ``commutation`` filters out every preset
        # (asserts would vanish under ``python -O``).
        raise RuntimeError("preset grid produced no candidate lowering")
    return tuple(best[basis][1] for basis in bases)


def best_preset_lowering(
    circuit: Circuit,
    basis: str,
    commutation: bool | None = None,
    validate: str = "off",
) -> Circuit:
    """Fewest-rotations lowering over the preset grid (Section 3.4).

    The single-basis case of :func:`best_preset_lowerings`, behind
    :func:`repro.experiments.workflows.best_transpile` and
    ``compile_circuit(optimization_level='best')``.
    """
    (lowered,) = best_preset_lowerings(
        circuit, (basis,), commutation, validate
    )
    return lowered
