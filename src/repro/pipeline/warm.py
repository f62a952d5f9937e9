"""Offline Rz catalog precompiler: ``python -m repro.pipeline.warm``.

"Precompile the world": synthesize a dense Rz angle x epsilon catalog
into a :class:`repro.pipeline.store.DiskSynthesisStore` ahead of time,
sharding the grid across worker processes, so a *fresh* compiler
process starts with warm segments instead of a cold cache — the
cold-start-within-2x-of-warm target the ROADMAP names.

gridsynth is deterministic, so the catalog is fully reproducible: two
runs (or two concurrent precompilers) publish byte-identical
content-addressed segments.  Re-running over an existing store is
incremental — keys already present in the snapshot are skipped — which
also makes an interrupted run resumable.

Also exposed as the ``warm-cache`` CLI command.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from repro.pipeline.batch import default_num_processes
from repro.pipeline.cache import bucket_eps, key_rz
from repro.pipeline.store import DiskSynthesisStore

#: Default epsilon grid: the everyday band and one decade tighter.
#: Values are band floors already, so requests at any epsilon in
#: ``[1e-3, 1e-1]`` find an exact- or stricter-band entry.
DEFAULT_EPS_GRID = (1e-2, 1e-3)

DEFAULT_N_ANGLES = 64


def catalog_angles(n_angles: int) -> list[float]:
    """A dense, trivial-free angle grid: ``k * 2*pi / n`` over one turn.

    Multiples of pi/4 synthesize exactly (T-power words) and never
    reach the cache, so they are dropped from the catalog.
    """
    if n_angles < 1:
        raise ValueError("n_angles must be >= 1")
    quarter = math.pi / 4
    angles = []
    for k in range(1, n_angles + 1):
        theta = 2.0 * math.pi * k / n_angles
        snapped = round(theta / quarter)
        if abs(theta - snapped * quarter) < 1e-12:
            continue
        angles.append(theta)
    return angles


def catalog_keys(
    n_angles: int, eps_grid=DEFAULT_EPS_GRID
) -> list[tuple[float, float]]:
    """The deduplicated ``(theta, banded eps)`` grid to precompile."""
    seen = set()
    tasks = []
    for eps in eps_grid:
        eps_b = bucket_eps(eps)
        for theta in catalog_angles(n_angles):
            key = key_rz(theta, eps_b)
            if key not in seen:
                seen.add(key)
                tasks.append((theta, eps_b))
    return tasks


def _warm_shard(cache_dir: str, tasks: list[tuple[float, float]]) -> dict:
    """Worker: synthesize one task shard into the shared store.

    Opens its own store instance, skips keys already in the snapshot
    (resume), and publishes everything fresh as one flush — a handful
    of consolidated segments per worker rather than one per result.
    """
    from repro.synthesis.gridsynth import gridsynth_rz

    store = DiskSynthesisStore(cache_dir)
    computed = skipped = 0
    for theta, eps_b in tasks:
        key = key_rz(theta, eps_b)
        if store.get(key) is not None:
            skipped += 1
            continue
        store.put(key, gridsynth_rz(theta, eps_b))
        computed += 1
    segments = store.flush()
    return {
        "computed": computed,
        "skipped": skipped,
        "segments": len(segments),
    }


@dataclass(frozen=True)
class WarmReport:
    """Outcome of one precompile run."""

    requested: int
    computed: int
    skipped: int
    segments: int
    workers: int
    wall_time: float

    def summary(self) -> str:
        return (
            f"warmed {self.computed} of {self.requested} catalog entries "
            f"({self.skipped} already present) into {self.segments} "
            f"segment(s) with {self.workers} worker(s) "
            f"in {self.wall_time:.2f}s"
        )


def warm_rz_catalog(
    cache_dir: str | os.PathLike,
    n_angles: int = DEFAULT_N_ANGLES,
    eps_grid=DEFAULT_EPS_GRID,
    workers: int | None = None,
    progress=None,
) -> WarmReport:
    """Precompile a dense Rz angle x epsilon catalog into ``cache_dir``.

    The grid is sharded by the store's own key-shard function and the
    shards are spread across ``workers`` processes (default:
    :func:`default_num_processes`; ``1`` runs inline, no pool), so
    each worker's single flush produces consolidated per-shard
    segments.  Incremental: entries already in the store are skipped.
    """
    from repro.pipeline.store import segments as seg

    start = time.monotonic()
    cache_dir = os.fspath(cache_dir)
    if workers is None:
        workers = default_num_processes()
    if workers < 1:
        raise ValueError("workers must be >= 1")
    store = DiskSynthesisStore(cache_dir)  # create/validate up front
    tasks = catalog_keys(n_angles, eps_grid)
    # Group the grid by store shard so one worker owns a shard's whole
    # slice and its flush writes one consolidated segment for it.
    by_shard: dict[int, list[tuple[float, float]]] = {}
    for theta, eps_b in tasks:
        kstr = seg.key_str(key_rz(theta, eps_b))
        by_shard.setdefault(seg.shard_of(kstr), []).append((theta, eps_b))
    groups = [by_shard[s] for s in sorted(by_shard)]
    workers = min(workers, len(groups)) if groups else 1
    if workers == 1:
        outcomes = [_warm_shard(cache_dir, g) for g in groups]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(
                pool.map(_warm_shard, [cache_dir] * len(groups), groups)
            )
    if progress is not None:
        for i, out in enumerate(outcomes):
            progress(
                f"shard group {i}: computed {out['computed']}, "
                f"skipped {out['skipped']}"
            )
    store.refresh()
    return WarmReport(
        requested=len(tasks),
        computed=sum(o["computed"] for o in outcomes),
        skipped=sum(o["skipped"] for o in outcomes),
        segments=sum(o["segments"] for o in outcomes),
        workers=workers,
        wall_time=time.monotonic() - start,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.pipeline.warm",
        description=(
            "Precompile a dense Rz angle x epsilon catalog into a "
            "cross-process synthesis store (warm segments for cold "
            "compiler starts)."
        ),
    )
    parser.add_argument(
        "--cache-dir", required=True,
        help="store directory to create or extend",
    )
    parser.add_argument(
        "--angles", type=int, default=DEFAULT_N_ANGLES,
        help=f"angle-grid density over one turn "
             f"(default {DEFAULT_N_ANGLES}; pi/4 multiples are dropped)",
    )
    parser.add_argument(
        "--eps", type=float, action="append", default=None,
        help="epsilon grid point, repeatable "
             f"(default: {' '.join(str(e) for e in DEFAULT_EPS_GRID)}; "
             "each is snapped to its band floor)",
    )
    parser.add_argument(
        "--workers", default="auto", metavar="N|auto",
        help="worker processes: an integer or 'auto' "
             "(default: auto = scheduler-affinity CPU count)",
    )
    return parser


def parse_workers_arg(value: str):
    """CLI ``N|auto`` worker spec -> compile_batch ``workers`` value."""
    if value == "auto":
        return "process"
    try:
        return int(value)
    except ValueError as exc:
        raise SystemExit(
            f"error: --workers must be an integer or 'auto', got {value!r}"
        ) from exc


def main(argv: list[str] | None = None) -> int:
    return run(build_parser().parse_args(argv))


def run(args: argparse.Namespace) -> int:
    """Warm the catalog for parsed :func:`build_parser` arguments."""
    spec = parse_workers_arg(args.workers)
    workers = default_num_processes() if spec == "process" else spec
    report = warm_rz_catalog(
        args.cache_dir,
        n_angles=args.angles,
        eps_grid=tuple(args.eps) if args.eps else DEFAULT_EPS_GRID,
        workers=workers,
        progress=lambda msg: print(f"[warm] {msg}"),
    )
    print(f"[warm] {report.summary()}")
    store = DiskSynthesisStore(args.cache_dir)
    print(f"[warm] store now holds {len(store)} entries "
          f"across {store.stats().n_segments} segment(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
