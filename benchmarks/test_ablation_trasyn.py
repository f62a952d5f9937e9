"""Ablation: which trasyn design choices buy the quality? (DESIGN.md)

Not a paper figure — an ablation of the search stages on Haar targets:

* sampling + per-slot sweeps (paper step 2, then coordinate ascent
  over single slots),
* + pair refinement (at two slots, the exact meet-in-the-middle pair
  search),
* + step-3 peephole post-processing (affects gate counts, not error),
* probabilistic mixing extension (paper §5: quadratic worst-case gain).
"""

import pytest

# Excluded from the fast PR gate: re-synthesizes the ablation grid per stage.
pytestmark = pytest.mark.slow

import numpy as np
from conftest import SCALE, write_result

from repro.enumeration import get_table
from repro.experiments.reporting import format_table, geomean
from repro.linalg import haar_random_u2
from repro.synthesis.mixing import trasyn_mixed
from repro.synthesis.trasyn import synthesize


def test_ablation_search_stages(benchmark):
    table = get_table(8)
    rng = np.random.default_rng(21)
    targets = [haar_random_u2(rng) for _ in range(4 * SCALE)]

    def run():
        rows = []
        variants = (
            ("sampling + per-slot sweeps", dict(refine=False,
                                                postprocess=False)),
            ("+ refinement", dict(refine=True, postprocess=False)),
            ("+ postprocess", dict(refine=True, postprocess=True)),
        )
        for label, kwargs in variants:
            errs, ts, cliffs = [], [], []
            for u in targets:
                res = synthesize(u, [8, 8], n_samples=300,
                                 rng=np.random.default_rng(5), table=table,
                                 **kwargs)
                errs.append(res.sequence.error)
                ts.append(res.sequence.t_count)
                cliffs.append(res.sequence.clifford_count)
            rows.append((label, float(np.mean(errs)), float(np.mean(ts)),
                         float(np.mean(cliffs))))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table_txt = format_table(
        ["variant", "mean error", "mean T", "mean Clifford"], rows
    )
    text = (
        "ABLATION: trasyn search stages at budgets [8, 8]\n" + table_txt
        + "\nexpected: error drops monotonically through the stages; "
        + "postprocess trims gates without touching error"
    )
    write_result("ablation_trasyn", text)
    errors = [r[1] for r in rows]
    assert errors[1] <= errors[0] + 1e-12, "refinement did not help"
    # Post-processing must not change the error, only the counts.
    assert abs(errors[2] - errors[1]) < 1e-9


def test_ablation_mixing(benchmark):
    table = get_table(6)
    rng = np.random.default_rng(22)
    targets = [haar_random_u2(rng) for _ in range(4 * SCALE)]

    def run():
        rows = []
        for i, u in enumerate(targets):
            mix = trasyn_mixed(u, [6], n_candidates=10, table=table,
                               rng=np.random.default_rng(i))
            rows.append(
                (f"target {i}", mix.coherent_distance, mix.mixed_distance,
                 round(mix.improvement, 2), len(mix.sequences),
                 round(mix.expected_t_count, 1))
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table_txt = format_table(
        ["target", "coherent dist", "mixed dist", "gain", "n mixed", "E[T]"],
        rows,
    )
    text = (
        "ABLATION: probabilistic mixing extension (paper section 5)\n"
        + table_txt
        + "\nexpected: worst-case (Choi trace) distance improves when "
        + "several comparable candidates exist"
    )
    write_result("ablation_mixing", text)
    gains = [r[3] for r in rows if r[4] > 1]
    assert gains and geomean(gains) > 1.0
