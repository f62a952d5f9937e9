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
"""

from __future__ import annotations

from typing import Iterator

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


def best_preset_lowering(
    circuit: Circuit,
    basis: str,
    commutation: bool | None = None,
    validate: str = "off",
) -> Circuit:
    """Fewest-rotations lowering over the preset grid (Section 3.4).

    The single implementation behind both
    :func:`repro.experiments.workflows.best_transpile` and
    ``compile_circuit(optimization_level='best')``.  ``commutation``
    pins the commutation pass on/off; ``None`` searches both.  The grid
    lowers ``circuit`` as given: :func:`repro.pipeline.compile_circuit`
    routes before lowering.
    """
    best: tuple[int, Circuit] | None = None
    for _, comm, pipeline in iter_presets(basis, validate=validate):
        if commutation is not None and comm != commutation:
            continue
        cand = pipeline.run(circuit)
        n = rotation_count(cand)
        if best is None or n < best[0]:
            best = (n, cand)
    if best is None:
        # Reachable only when ``commutation`` filters out every preset
        # (asserts would vanish under ``python -O``).
        raise RuntimeError("preset grid produced no candidate lowering")
    return best[1]
