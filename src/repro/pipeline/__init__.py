"""Composable compilation pipeline: passes, presets, caching, batching.

The architectural seam between the paper's algorithms and a production
compiler service:

* :class:`Pass` / :class:`PassManager` — the transpiler rewrites as
  composable objects with per-pass metrics, including the DAG passes
  (:class:`CancelInverses`, :class:`MergeRotations`,
  :class:`FoldPhases`, :class:`DagOptimize`) running on the columnar
  :class:`repro.circuits.DAGTable`,
* :func:`preset_pipeline` — the paper's optimization levels 0-3 plus
  the DAG-pass level 4, for both target IRs as ready-made lowering
  pipelines (connectivity-free: passes never route),
* :class:`SynthesisCache` — a thread-safe LRU of synthesized rotations;
  attach a :class:`DiskSynthesisStore` (:mod:`repro.pipeline.store`,
  the one persistence format) and it becomes the L1 of a two-tier,
  cross-process hierarchy with epsilon-band reuse,
* :func:`compile_circuit` / :func:`compile_batch` — the one compile
  path: route onto a hardware target, lower, synthesize and pick the
  objective's best variant, parallel over circuits on threads or
  (``workers='process'``) a true process pool sharing the disk store,
* :mod:`repro.pipeline.warm` — the offline Rz catalog precompiler
  (``python -m repro.pipeline.warm`` / CLI ``warm-cache``) that ships
  warm segments for cold starts.

The pipeline entry points take ``validate="off"|"structural"|"full"``,
which runs the :mod:`repro.analysis` contract checkers between passes
and, in :func:`compile_circuit`, on the routed and final circuits.
"""
from repro.pipeline.batch import (
    DEFAULT_EPS,
    OBJECTIVES,
    BatchResult,
    SynthesizedCircuit,
    compile_batch,
    compile_circuit,
    default_num_processes,
    map_parallel,
    resolve_workers,
    rng_for_key,
    synthesize_lowered,
)
from repro.pipeline.cache import (
    EPS_BANDS_PER_DECADE,
    CacheStats,
    SynthesisCache,
    band_eps,
    bucket_eps,
    eps_band,
    key_rz,
    key_u3,
    stricter_keys,
)
from repro.pipeline.store import (
    DiskSynthesisStore,
    StoreStats,
)
from repro.pipeline.passes import (
    CancelInversePairs,
    CancelInverses,
    CommuteRotations,
    DAGPass,
    DagOptimize,
    DecomposeToRzBasis,
    FoldPhases,
    FunctionPass,
    IsolateU3,
    MergeRotations,
    MergeRuns,
    Pass,
    PassManager,
    PassMetrics,
    PipelineResult,
    SnapTrivialRotations,
)
from repro.pipeline.presets import (
    BASES,
    OPTIMIZATION_LEVELS,
    best_preset_lowering,
    best_preset_lowerings,
    iter_presets,
    preset_pipeline,
)

__all__ = [
    "BASES",
    "BatchResult",
    "CacheStats",
    "DiskSynthesisStore",
    "EPS_BANDS_PER_DECADE",
    "StoreStats",
    "band_eps",
    "best_preset_lowering",
    "best_preset_lowerings",
    "bucket_eps",
    "default_num_processes",
    "eps_band",
    "resolve_workers",
    "stricter_keys",
    "CancelInversePairs",
    "CancelInverses",
    "CommuteRotations",
    "DAGPass",
    "DagOptimize",
    "DEFAULT_EPS",
    "DecomposeToRzBasis",
    "FoldPhases",
    "FunctionPass",
    "IsolateU3",
    "MergeRotations",
    "MergeRuns",
    "OBJECTIVES",
    "OPTIMIZATION_LEVELS",
    "Pass",
    "PassManager",
    "PassMetrics",
    "PipelineResult",
    "SnapTrivialRotations",
    "SynthesisCache",
    "SynthesizedCircuit",
    "compile_batch",
    "compile_circuit",
    "iter_presets",
    "key_rz",
    "key_u3",
    "map_parallel",
    "preset_pipeline",
    "rng_for_key",
    "synthesize_lowered",
]
