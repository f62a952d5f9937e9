"""Synthesis benchmarks: gridsynth Rz approximation and trasyn.

gridsynth is timed at two precision points (a fast everyday epsilon and
a tight one) on a fixed irrational-ish angle, and as the RQ1 baseline
``gridsynth_u3`` (three Rz calls) on one seeded Haar target at the
end-to-end benchmark's eps.  trasyn is timed with the
enumeration table prebuilt in setup (table construction is a one-off
cost amortized by the disk cache): a single slot is a table scan, two
slots run the canonical exact pair search (``meet.best_pair``, no MPS),
and three slots sample the MPS, then polish several starts by pair
sweeps of ``meet.best_pair``; step-3 simplification follows.  The
(10,6), (10,10), (12,12) and (12,12,8) layouts are trasyn's multi-slot
rungs.  ``trasyn/simplify`` times step 3 alone on the (10,10) layout's
two slot words for the fixed target, joined at their seam.

``trasyn/ladder`` times Algorithm 1 in threshold mode on seeded Haar
targets at the compile-cold workload's per-rotation threshold, which
defers the rungs that provably cannot meet it.  Its ``/eager`` twin
runs every rung in order, the loop the deferral must equal;
:func:`run_specs` times the two interleaved and :func:`finalize`
records ``speedup_vs_reference``.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.bench.harness import (BenchResult, BenchSpec, run_with_twins,
                                 twin_speedup)

_THETA = 0.5477  # fixed non-special angle

_GRIDSYNTH_EPS = (1e-3, 1e-5)
_QUICK_GRIDSYNTH_EPS = (1e-2,)
_U3_EPS = 2e-2
_U3_SEED = 1  # the first synth-haar target at seed 1

_TRASYN_BUDGET = {False: 6, True: 3}
_TRASYN_SAMPLES = {False: 500, True: 50}
_TRASYN_LAYOUTS = {
    False: ((10, 6), (10, 10), (12, 12), (12, 12, 8)),
    True: ((4, 3), (4, 4), (4, 4, 3)),
}
# Threshold-mode ladder: the compile-cold threshold (0.007 snapped to
# its band floor) on its default ladder, or a budget-4 ladder in quick.
_LADDER_EPS = {False: 0.005623413251903491, True: 0.05}
_LADDER_QUICK = [[3], [4, 3], [4, 4]]
_LADDER_TARGETS = {False: 12, True: 4}
_LADDER_SEED = 5


def _gridsynth_spec(eps: float) -> BenchSpec:
    def setup():
        from repro.synthesis.gridsynth import gridsynth_rz

        def run():
            seq = gridsynth_rz(_THETA, eps)
            return {"t_count": seq.t_count}

        return run

    return BenchSpec(
        name=f"gridsynth_rz/eps={eps:g}",
        params={"theta": _THETA, "eps": eps},
        setup=setup,
    )


def _gridsynth_u3_spec() -> BenchSpec:
    def setup():
        import numpy as np

        from repro.linalg import haar_random_u2
        from repro.synthesis.gridsynth import gridsynth_u3

        target = haar_random_u2(np.random.default_rng(_U3_SEED))

        def run():
            seq = gridsynth_u3(target, _U3_EPS)
            return {"t_count": seq.t_count}

        return run

    return BenchSpec(
        name=f"gridsynth_u3/eps={_U3_EPS:g}",
        params={"eps": _U3_EPS, "haar_seed": _U3_SEED},
        setup=setup,
    )


def _trasyn_layout_spec(
    layout: tuple[int, ...], n_samples: int, name: str | None = None
) -> BenchSpec:
    def setup():
        import numpy as np

        from repro.enumeration import get_table
        from repro.linalg import u3
        from repro.synthesis.trasyn import synthesize

        table = get_table(max(layout))  # prebuilt: a one-off cost
        target = u3(0.3, 0.7, 1.1)

        def run():
            result = synthesize(
                target,
                t_budgets=list(layout),
                n_samples=n_samples,
                rng=np.random.default_rng(17),
                table=table,
            )
            return {"t_count": result.sequence.t_count}

        # Untimed first call: builds the layout's memoized MPS tail and
        # k-d trees, which every later target on this table reuses.
        run()
        return run

    return BenchSpec(
        name=name or f"trasyn/layout={'-'.join(map(str, layout))}",
        params={
            "t_budgets": list(layout),
            "n_samples": n_samples,
            "u3": [0.3, 0.7, 1.1],
            "seed": 17,
        },
        setup=setup,
    )


def _trasyn_simplify_spec(layout: tuple[int, ...]) -> BenchSpec:
    def setup():
        from repro.enumeration import get_table
        from repro.linalg import u3
        from repro.synthesis.meet import best_pair
        from repro.synthesis.trasyn import budget_ranges, layout_slots, simplify_sequence

        table = get_table(max(layout))
        slots = layout_slots(table, budget_ranges(list(layout)))
        pair = best_pair(u3(0.3, 0.7, 1.1), slots)[:2]
        words = [table.sequence(int(s.rows[r])) for s, r in zip(slots, pair)]
        gates = [g for word in words for g in word]
        return lambda: {"gates_out": len(simplify_sequence(
            gates, table, seams=[len(words[0])]))}

    return BenchSpec(name=f"trasyn/simplify/layout={'-'.join(map(str, layout))}",
                     params={"t_budgets": list(layout), "u3": [0.3, 0.7, 1.1]}, setup=setup)


def _eager_ladder(target, schedule, error_threshold, n_samples, rng, table):
    """Threshold-mode Algorithm 1 with every rung run in order."""
    from repro.synthesis.trasyn import _quality, synthesize

    best = None
    for budgets in schedule:
        cand = synthesize(target, budgets, n_samples=n_samples, rng=rng,
                          table=table).sequence
        if best is None or _quality(cand) < _quality(best):
            best = cand
        if best.error < error_threshold:
            break
    return best


def _trasyn_ladder_spec(quick: bool, eager: bool) -> BenchSpec:
    eps, n_targets = _LADDER_EPS[quick], _LADDER_TARGETS[quick]

    def setup():
        import numpy as np

        from repro.enumeration import get_table
        from repro.linalg import haar_random_u2
        from repro.synthesis.trasyn import schedule_for_threshold, trasyn

        schedule = _LADDER_QUICK if quick else schedule_for_threshold(eps)
        table = get_table(max(max(b) for b in schedule))
        rng = np.random.default_rng(_LADDER_SEED)
        targets = [haar_random_u2(rng) for _ in range(n_targets)]
        # Every rung of both ladders has one or two slots, so the eager
        # twin runs each once and skips no draws.

        def run():
            t = 0
            for i, u in enumerate(targets):
                rng = np.random.default_rng([_LADDER_SEED, i])
                if eager:
                    seq = _eager_ladder(u, schedule, eps, 500, rng, table)
                else:
                    seq = trasyn(u, error_threshold=eps, schedule=schedule,
                                 rng=rng, table=table)
                t += seq.t_count
            return {"t_count": t}

        run()  # untimed: builds the ladder's memoized slots and indexes
        return run

    return BenchSpec(
        name="trasyn/ladder" + ("/eager" if eager else ""),
        params={"eps": eps, "n_targets": n_targets, "haar_seed": _LADDER_SEED},
        setup=setup,
    )


def specs(quick: bool) -> list[BenchSpec]:
    eps_points = _QUICK_GRIDSYNTH_EPS if quick else _GRIDSYNTH_EPS
    out = [_gridsynth_spec(eps) for eps in eps_points]
    out.append(_gridsynth_u3_spec())
    budget = _TRASYN_BUDGET[quick]
    out.append(_trasyn_layout_spec((budget,), _TRASYN_SAMPLES[quick],
                                   name=f"trasyn/lookup/budget={budget}"))
    out.extend(
        _trasyn_layout_spec(layout, _TRASYN_SAMPLES[quick])
        for layout in _TRASYN_LAYOUTS[quick]
    )
    out.append(_trasyn_simplify_spec(_TRASYN_LAYOUTS[quick][1]))
    out.extend(_trasyn_ladder_spec(quick, eager) for eager in (False, True))
    return out


def run_specs(
    specs: list[BenchSpec],
    warmup: int,
    repeats: int,
    progress: Callable[[str], None] | None = None,
) -> list[BenchResult]:
    """Time ``trasyn/ladder`` interleaved with its ``/eager`` twin."""
    return run_with_twins(specs, ("/eager",), warmup, repeats, progress)


def finalize(results: list[BenchResult]) -> None:
    by_name = {r.name: r for r in results}
    for r in results:
        if r.name.startswith("gridsynth_rz/"):
            r.extra.setdefault("theta_over_pi", round(_THETA / math.pi, 6))
        eager = by_name.get(f"{r.name}/eager")
        if eager is not None:
            r.extra["speedup_vs_reference"] = twin_speedup(r, eager)
