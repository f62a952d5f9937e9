"""Timing discipline and report schema for the standing perf harness.

Every benchmark is a :class:`BenchSpec`: a ``setup`` that builds the
fixture (excluded from timing) and returns the zero-argument thunk to
time.  :func:`run_specs` applies the warmup/repeat/median-and-spread
discipline and :func:`write_report` emits the schema-versioned JSON the
repo keeps at its root (``BENCH_routing.json`` etc.) so every PR can
show its perf delta against the committed numbers.

Report schema (``repro-bench/v1``)
----------------------------------
::

    {
      "schema": "repro-bench/v1",
      "area": "routing",
      "quick": false,
      "warmup": 1,
      "repeats": 5,
      "benchmarks": [
        {
          "name": "route_dag/grid/100q",
          "params": {"topology": "grid", "n_qubits": 100, ...},
          "warmup": 1,
          "repeats": 5,
          "median_s": 0.123,
          "mean_s": 0.125,
          "min_s": 0.120,
          "max_s": 0.131,
          "stdev_s": 0.004,
          "extra": {"swaps": 518}
        }
      ]
    }

``median_s`` is the headline number; ``min``/``max``/``stdev`` record
the spread so noisy runs are visible.  ``extra`` holds benchmark-level
facts (gate counts, derived speedups) that make the report
self-describing.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable

SCHEMA_VERSION = "repro-bench/v1"

#: Fields every benchmark entry must carry (schema validation).
_ENTRY_FIELDS = (
    "name",
    "params",
    "warmup",
    "repeats",
    "median_s",
    "mean_s",
    "min_s",
    "max_s",
    "stdev_s",
    "extra",
)


@dataclass
class BenchSpec:
    """One benchmark: named fixture + the thunk to time.

    ``setup`` runs once, untimed, and returns the callable that is
    timed ``warmup + repeats`` times.  The thunk may return a dict,
    which is merged into the result's ``extra`` (last repeat wins) —
    the cheap way to record output facts like swap counts.
    """

    name: str
    params: dict[str, Any]
    setup: Callable[[], Callable[[], Any]]
    extra: dict[str, Any] = field(default_factory=dict)


@dataclass
class BenchResult:
    """Timing summary of one executed benchmark."""

    name: str
    params: dict[str, Any]
    warmup: int
    repeats: int
    times_s: list[float]
    extra: dict[str, Any]

    @property
    def median_s(self) -> float:
        return statistics.median(self.times_s)

    def as_dict(self) -> dict[str, Any]:
        times = self.times_s
        return {
            "name": self.name,
            "params": self.params,
            "warmup": self.warmup,
            "repeats": self.repeats,
            "median_s": statistics.median(times),
            "mean_s": statistics.fmean(times),
            "min_s": min(times),
            "max_s": max(times),
            "stdev_s": statistics.stdev(times) if len(times) > 1 else 0.0,
            "extra": self.extra,
        }


def run_spec(spec: BenchSpec, warmup: int, repeats: int) -> BenchResult:
    """Time one spec: setup (untimed), ``warmup`` discards, ``repeats``."""
    return run_interleaved([spec], warmup, repeats)[0]


def run_interleaved(
    specs: list[BenchSpec], warmup: int, repeats: int
) -> list[BenchResult]:
    """Time ``specs`` side by side, each thunk once per round.

    Every setup runs first (untimed), then ``warmup`` untimed rounds and
    ``repeats`` timed ones; odd rounds run the thunks in reverse order,
    so a slow spell of a shared machine lands on every spec alike and
    ``times_s[r]`` of every result comes from round ``r``.  As in
    :mod:`timeit`, the garbage collector is parked during each timed
    call, so no call pays for a collection of the whole heap.
    """
    if repeats < 1:
        raise ValueError("need at least one timed repeat")
    fns = [spec.setup() for spec in specs]
    results = [
        BenchResult(spec.name, spec.params, warmup, repeats, [], dict(spec.extra))
        for spec in specs
    ]
    for _ in range(warmup):
        for fn in fns:
            fn()
    for rnd in range(repeats):
        for i in range(len(fns))[:: -1 if rnd % 2 else 1]:
            gc.disable()
            try:
                t0 = time.perf_counter()
                out = fns[i]()
                results[i].times_s.append(time.perf_counter() - t0)
            finally:
                gc.enable()
            if isinstance(out, dict):
                results[i].extra.update(out)
    return results


def run_specs(
    specs: list[BenchSpec],
    warmup: int,
    repeats: int,
    progress: Callable[[str], None] | None = None,
) -> list[BenchResult]:
    results = []
    for spec in specs:
        if progress is not None:
            progress(f"  {spec.name} ...")
        results.append(run_spec(spec, warmup, repeats))
        if progress is not None:
            progress(f"  {spec.name}: {results[-1].median_s:.4f}s median")
    return results


def report_dict(
    area: str,
    results: list[BenchResult],
    quick: bool,
    warmup: int,
    repeats: int,
) -> dict[str, Any]:
    return {
        "schema": SCHEMA_VERSION,
        "area": area,
        "quick": bool(quick),
        "warmup": warmup,
        "repeats": repeats,
        "benchmarks": [r.as_dict() for r in results],
    }


def write_report(path: str, report: dict[str, Any]) -> None:
    """Atomically write a report via :mod:`repro.analysis.atomic_io`."""
    from repro.analysis.atomic_io import atomic_write_json

    validate_report(report)
    atomic_write_json(path, report, indent=2, trailing_newline=True)


#: Fresh medians may exceed the committed maximum by this fraction
#: before counting as a regression (machine and load variance).
DEFAULT_COMPARE_TOLERANCE = 0.25


def compare_reports(
    committed: dict[str, Any],
    fresh: dict[str, Any],
    tolerance: float = DEFAULT_COMPARE_TOLERANCE,
) -> list[dict[str, Any]]:
    """Diff a fresh report against a committed baseline, entry by entry.

    An entry regresses when its fresh median exceeds the committed
    run's *recorded spread* — ``max_s`` — by more than ``tolerance``
    (so committed noise is not mistaken for a slowdown).  Returns one
    row per committed benchmark::

        {"name", "committed_median_s", "committed_max_s",
         "fresh_median_s",  # None when the benchmark vanished
         "ratio",           # fresh / committed median, None if missing
         "committed_speedup",  # extra.speedup_vs_reference, None if
         "fresh_speedup",      # ...absent — the machine-relative
                               # metric hard gates compare instead of
                               # cross-machine wall clock
         "regressed"}       # bool; a vanished benchmark regresses

    Both reports must cover the same area at the same ``quick`` size,
    otherwise the medians are not comparable and ``ValueError`` is
    raised.
    """
    validate_report(committed)
    validate_report(fresh)
    if committed["area"] != fresh["area"]:
        raise ValueError(
            f"area mismatch: committed {committed['area']!r} "
            f"vs fresh {fresh['area']!r}"
        )
    if bool(committed["quick"]) != bool(fresh["quick"]):
        raise ValueError(
            "quick-mode mismatch: committed and fresh reports time "
            "different problem sizes"
        )
    if tolerance < 0:
        raise ValueError("tolerance must be non-negative")
    fresh_by_name = {e["name"]: e for e in fresh["benchmarks"]}
    rows = []
    for entry in committed["benchmarks"]:
        counterpart = fresh_by_name.get(entry["name"])
        row = {
            "name": entry["name"],
            "committed_median_s": entry["median_s"],
            "committed_max_s": entry["max_s"],
            "fresh_median_s": None,
            "ratio": None,
            "committed_speedup": entry.get("extra", {}).get(
                "speedup_vs_reference"
            ),
            "fresh_speedup": None,
            "regressed": True,
        }
        if counterpart is not None:
            fresh_median = counterpart["median_s"]
            threshold = max(entry["max_s"], entry["median_s"]) * (
                1.0 + tolerance
            )
            row["fresh_median_s"] = fresh_median
            if entry["median_s"] > 0:
                row["ratio"] = fresh_median / entry["median_s"]
            row["fresh_speedup"] = counterpart.get("extra", {}).get(
                "speedup_vs_reference"
            )
            row["regressed"] = fresh_median > threshold
        rows.append(row)
    return rows


def validate_report(report: Any) -> None:
    """Raise ``ValueError`` unless ``report`` matches ``repro-bench/v1``."""
    if not isinstance(report, dict):
        raise ValueError("report must be a JSON object")
    if report.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"unknown schema {report.get('schema')!r} "
            f"(expected {SCHEMA_VERSION!r})"
        )
    for key in ("area", "quick", "warmup", "repeats", "benchmarks"):
        if key not in report:
            raise ValueError(f"report missing {key!r}")
    if not isinstance(report["benchmarks"], list) or not report["benchmarks"]:
        raise ValueError("report carries no benchmarks")
    for entry in report["benchmarks"]:
        if not isinstance(entry, dict):
            raise ValueError("benchmark entry must be an object")
        for key in _ENTRY_FIELDS:
            if key not in entry:
                raise ValueError(
                    f"benchmark {entry.get('name', '<unnamed>')!r} "
                    f"missing {key!r}"
                )
        for key in ("median_s", "mean_s", "min_s", "max_s", "stdev_s"):
            value = entry[key]
            if not isinstance(value, (int, float)) or value < 0:
                raise ValueError(
                    f"benchmark {entry['name']!r}: {key} must be a "
                    "non-negative number"
                )
