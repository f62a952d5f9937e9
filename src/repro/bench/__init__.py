"""The standing performance harness (``python -m repro.bench``).

Times the compiler's known hot paths — gridsynth Rz approximation,
trasyn table lookup, SABRE routing across topologies and scales, and
the simulation engines — with warmup/repeat/median-and-spread
discipline, and writes schema-versioned ``BENCH_<area>.json`` reports
at the repo root.  Those files are committed: every PR that moves a hot
path re-runs the affected area and shows its delta against the
checked-in medians (see README, "Benchmark harness").

Areas
-----
``routing``    ``BENCH_routing.json`` — :mod:`repro.bench.routing_suite`
``synthesis``  ``BENCH_synthesis.json`` — :mod:`repro.bench.synthesis_suite`
``sim``        ``BENCH_sim.json`` — :mod:`repro.bench.sim_suite`
``passes``     ``BENCH_passes.json`` — :mod:`repro.bench.passes_suite`
``cache``      ``BENCH_cache.json`` — :mod:`repro.bench.cache_suite`

``python -m repro.bench --compare BENCH_sim.json`` re-runs a committed
report's area at matching sizes and flags entries whose fresh median
regresses beyond the recorded spread (see :func:`compare_reports`).
"""

from __future__ import annotations

import os
from typing import Any, Callable

from repro.bench.harness import (
    SCHEMA_VERSION,
    BenchResult,
    BenchSpec,
    compare_reports,
    report_dict,
    run_spec,
    run_specs,
    validate_report,
    write_report,
)

__all__ = [
    "SCHEMA_VERSION",
    "AREAS",
    "BenchResult",
    "BenchSpec",
    "compare_reports",
    "run_area",
    "run_spec",
    "run_specs",
    "report_dict",
    "validate_report",
    "write_report",
]


def _suite(area: str):
    if area == "routing":
        from repro.bench import routing_suite as suite
    elif area == "synthesis":
        from repro.bench import synthesis_suite as suite
    elif area == "sim":
        from repro.bench import sim_suite as suite
    elif area == "passes":
        from repro.bench import passes_suite as suite
    elif area == "cache":
        from repro.bench import cache_suite as suite
    else:
        raise ValueError(
            f"unknown bench area {area!r} (expected one of {AREAS})"
        )
    return suite


AREAS = ("routing", "synthesis", "sim", "passes", "cache")

#: Default timing discipline; ``--quick`` drops to one cold repeat.
DEFAULT_WARMUP = 1
DEFAULT_REPEATS = 5


def run_area(
    area: str,
    quick: bool = False,
    warmup: int | None = None,
    repeats: int | None = None,
    out_dir: str | None = None,
    progress: Callable[[str], None] | None = None,
) -> dict[str, Any]:
    """Run one area's suite and write ``BENCH_<area>.json``.

    Returns the report dict.  ``out_dir=None`` skips writing (useful
    for tests); ``quick`` shrinks problem sizes and defaults to a
    single unwarmed repeat, for smoke validation rather than numbers.
    """
    suite = _suite(area)
    if warmup is None:
        warmup = 0 if quick else DEFAULT_WARMUP
    if repeats is None:
        repeats = 1 if quick else DEFAULT_REPEATS
    run = getattr(suite, "run_specs", run_specs)
    results = run(suite.specs(quick), warmup, repeats, progress)
    finalize = getattr(suite, "finalize", None)
    if finalize is not None:
        finalize(results)
    report = report_dict(area, results, quick, warmup, repeats)
    if out_dir is not None:
        write_report(os.path.join(out_dir, f"BENCH_{area}.json"), report)
    return report
