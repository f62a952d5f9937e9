"""RQ1: single-qubit unitary synthesis on Haar-random targets.

Regenerates Figure 7 (synthesis error vs T count / Clifford count),
Figure 8 (synthesis time), and Table 1 (reduction statistics at the
0.001 threshold) for trasyn, gridsynth (via three Rz calls, Eq. 1), and
the Synthetiq-style annealing baseline.

Targets come from ``default_rng(seed)``.  Every trasyn and annealing
call draws from its own ``rng_for_key(seed, ("rq1", method, i, eps))``
generator, so the wall-clock-bounded annealer cannot shift the stream
trasyn sees.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.linalg import haar_random_u2
from repro.pipeline import rng_for_key
from repro.synthesis import trasyn
from repro.synthesis.annealing import anneal_unitary
from repro.synthesis.gridsynth import gridsynth_u3
from repro.enumeration import get_table
from repro.experiments.reporting import ratio_summary

THRESHOLDS = (0.1, 0.01, 0.001)


@dataclass
class SynthesisPoint:
    method: str
    eps: float
    error: float
    t_count: int
    clifford_count: int
    seconds: float
    succeeded: bool = True


@dataclass
class RQ1Result:
    points: list[SynthesisPoint] = field(default_factory=list)

    def of(self, method: str, eps: float | None = None) -> list[SynthesisPoint]:
        out = [p for p in self.points if p.method == method]
        if eps is not None:
            out = [p for p in out if p.eps == eps]
        return out

    def table1(self, eps: float = 0.001) -> dict[str, dict[str, float]]:
        """Reduction statistics of gridsynth over trasyn (paper Table 1)."""
        tra = self.of("trasyn", eps)
        gri = self.of("gridsynth", eps)
        t_ratios = [g.t_count / max(1, t.t_count) for g, t in zip(gri, tra)]
        c_ratios = [
            g.clifford_count / max(1, t.clifford_count)
            for g, t in zip(gri, tra)
        ]
        return {
            "t_count": ratio_summary(t_ratios),
            "clifford_count": ratio_summary(c_ratios),
        }

    def failures(self, method: str) -> dict[float, int]:
        return {
            eps: sum(1 for p in self.of(method, eps) if not p.succeeded)
            for eps in THRESHOLDS
        }


def run_rq1(
    n_unitaries: int = 50,
    seed: int = 1,
    thresholds: tuple[float, ...] = THRESHOLDS,
    include_annealing: bool = True,
    annealing_time_limit: float = 2.0,
) -> RQ1Result:
    """Synthesize Haar unitaries with every method at every threshold."""
    rng = np.random.default_rng(seed)
    targets = [haar_random_u2(rng) for _ in range(n_unitaries)]
    # Warm the enumeration tables so timings reflect synthesis only.
    for eps in thresholds:
        from repro.synthesis.trasyn import schedule_for_threshold

        for budgets in schedule_for_threshold(eps):
            get_table(max(budgets))
    result = RQ1Result()
    for eps in thresholds:
        for i, u in enumerate(targets):
            t0 = time.monotonic()
            seq = trasyn(
                u, error_threshold=eps,
                rng=rng_for_key(seed, ("rq1", "trasyn", i, eps)),
            )
            result.points.append(
                SynthesisPoint(
                    "trasyn", eps, seq.error, seq.t_count,
                    seq.clifford_count, time.monotonic() - t0,
                )
            )
            t0 = time.monotonic()
            seq = gridsynth_u3(u, eps)
            result.points.append(
                SynthesisPoint(
                    "gridsynth", eps, seq.error, seq.t_count,
                    seq.clifford_count, time.monotonic() - t0,
                )
            )
            if include_annealing:
                t0 = time.monotonic()
                report = anneal_unitary(
                    u, eps,
                    rng=rng_for_key(seed, ("rq1", "synthetiq", i, eps)),
                    time_limit=annealing_time_limit,
                )
                if report.succeeded:
                    s = report.sequence
                    result.points.append(
                        SynthesisPoint(
                            "synthetiq", eps, s.error, s.t_count,
                            s.clifford_count, report.elapsed,
                        )
                    )
                else:
                    result.points.append(
                        SynthesisPoint(
                            "synthetiq", eps, math.nan, 0, 0,
                            report.elapsed, succeeded=False,
                        )
                    )
    return result


def summarize(result: RQ1Result) -> list[tuple]:
    """Figure 7/8 rows: per (method, eps) mean T, Clifford, error, time."""
    rows = []
    for method in ("trasyn", "gridsynth", "synthetiq"):
        for eps in THRESHOLDS:
            pts = [p for p in result.of(method, eps) if p.succeeded]
            if not pts:
                rows.append((method, eps, "-", "-", "-", "-", 0))
                continue
            rows.append(
                (
                    method,
                    eps,
                    float(np.mean([p.t_count for p in pts])),
                    float(np.mean([p.clifford_count for p in pts])),
                    float(np.mean([p.error for p in pts])),
                    float(np.mean([p.seconds for p in pts])),
                    len(pts),
                )
            )
    return rows
