"""``python -m repro.bench`` — run the standing perf harness."""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.bench import AREAS, compare_reports, run_area
from repro.bench.harness import DEFAULT_COMPARE_TOLERANCE, validate_report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description=(
            "Time the compiler's hot paths and write schema-versioned "
            "BENCH_<area>.json reports."
        ),
    )
    parser.add_argument(
        "--area",
        choices=AREAS + ("all",),
        default="all",
        help="which benchmark area to run (default: all)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smoke mode: small sizes, one unwarmed repeat",
    )
    parser.add_argument(
        "--warmup", type=int, default=None,
        help="untimed warmup iterations (default: 1, quick: 0)",
    )
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="timed repeats per benchmark (default: 5, quick: 3)",
    )
    parser.add_argument(
        "--out-dir", default=".",
        help="directory for BENCH_<area>.json (default: cwd)",
    )
    parser.add_argument(
        "--no-write", action="store_true",
        help="run and print medians without writing report files",
    )
    parser.add_argument(
        "--compare", action="append", default=None, metavar="REPORT",
        help=(
            "committed BENCH_<area>.json to diff against: re-runs that "
            "area at the report's sizes (no files written) and flags "
            "entries regressing beyond the recorded spread; repeatable; "
            "exits 2 on regression"
        ),
    )
    parser.add_argument(
        "--compare-tolerance", type=float,
        default=DEFAULT_COMPARE_TOLERANCE,
        help=(
            "fraction a fresh median may exceed the committed max "
            f"before flagging (default: {DEFAULT_COMPARE_TOLERANCE})"
        ),
    )
    parser.add_argument(
        "--fail-area", action="append", default=None, metavar="AREA",
        choices=AREAS,
        help=(
            "gate hard on this area: exit 2 only when one of its "
            "entries slows past --fail-ratio (or goes missing); other "
            "areas then merely warn; repeatable.  Without this flag "
            "every compared area gates at the recorded-spread "
            "threshold (legacy behavior)."
        ),
    )
    parser.add_argument(
        "--fail-ratio", type=float, default=1.3,
        help=(
            "slowdown multiple beyond which a --fail-area entry fails "
            "the run (default: 1.3); interpreted per --fail-metric"
        ),
    )
    parser.add_argument(
        "--fail-metric", choices=("median", "speedup"), default="median",
        help=(
            "what --fail-ratio gates on: 'median' compares the fresh "
            "wall-clock median against the committed one (meaningful "
            "only on the machine that recorded the baseline); "
            "'speedup' compares each entry's speedup_vs_reference — "
            "both sides of that ratio are timed in the same run, so "
            "absolute machine speed cancels out (use this on CI "
            "runners; default: median)"
        ),
    )
    return parser


def _run_compare(args: argparse.Namespace) -> int:
    """``--compare`` mode: fresh run per committed report, diff, flag.

    Without ``--fail-area`` every spread-threshold regression is fatal
    (legacy behavior).  With it, only the named areas gate the exit
    code — at the coarser ``--fail-ratio`` multiple of the chosen
    ``--fail-metric`` — while regressions elsewhere print loudly but
    stay advisory.  The ``speedup`` metric gates on each entry's
    ``speedup_vs_reference`` dropping past ``fail_ratio`` below the
    committed value: both sides of that ratio are measured in the same
    fresh run, so a uniformly slower (or faster) machine cancels out —
    absolute medians recorded on one machine never fail another.
    """
    fail_areas = set(args.fail_area or ())
    gated = bool(fail_areas)
    regressed = False
    failed = False
    for path in args.compare:
        with open(path, encoding="utf-8") as fh:
            committed = json.load(fh)
        validate_report(committed)
        area = committed["area"]
        quick = bool(committed["quick"])
        hard = area in fail_areas
        print(f"[bench] compare {path}: area={area} quick={quick}")
        fresh = run_area(
            area,
            quick=quick,
            warmup=args.warmup,
            repeats=args.repeats,
            out_dir=None,
            progress=lambda msg: print(f"[bench]{msg}"),
        )
        rows = compare_reports(
            committed, fresh, tolerance=args.compare_tolerance
        )
        for row in rows:
            if row["fresh_median_s"] is None:
                print(f"[bench]   {row['name']}: MISSING from fresh run")
                regressed = True
                failed = failed or hard
                continue
            if args.fail_metric == "speedup":
                # Only entries carrying a committed speedup gate; their
                # reference twins are the denominator of that very
                # ratio, so they are covered implicitly.
                committed_sp = row["committed_speedup"]
                fresh_sp = row["fresh_speedup"]
                fails = (
                    hard
                    and committed_sp is not None
                    and (
                        fresh_sp is None
                        or fresh_sp * args.fail_ratio < committed_sp
                    )
                )
            else:
                fails = hard and row["ratio"] > args.fail_ratio
            flag = "ok"
            if fails:
                flag = f"FAILED (> {args.fail_ratio}x {args.fail_metric})"
            elif row["regressed"]:
                flag = "REGRESSED"
            speedup_note = ""
            if row["committed_speedup"] is not None:
                fresh_sp = row["fresh_speedup"]
                speedup_note = (
                    f" [speedup {row['committed_speedup']:.2f}x -> "
                    + (f"{fresh_sp:.2f}x]" if fresh_sp is not None
                       else "missing]")
                )
            print(
                f"[bench]   {row['name']}: committed "
                f"{row['committed_median_s']:.4f}s -> fresh "
                f"{row['fresh_median_s']:.4f}s "
                f"({row['ratio']:.2f}x){speedup_note} {flag}"
            )
            regressed = regressed or row["regressed"]
            failed = failed or fails
    if gated:
        if failed:
            print(
                f"[bench] gated area regression beyond {args.fail_ratio}x "
                f"{args.fail_metric} "
                f"(areas: {', '.join(sorted(fail_areas))})"
            )
            return 2
        if regressed:
            print(
                "[bench] regressions beyond recorded spread in ungated "
                "areas (advisory only)"
            )
        else:
            print("[bench] no regressions beyond recorded spread")
        return 0
    if regressed:
        print(
            "[bench] regression beyond recorded spread "
            f"(tolerance {args.compare_tolerance})"
        )
        return 2
    print("[bench] no regressions beyond recorded spread")
    return 0


def main(argv: list[str] | None = None) -> int:
    return run(build_parser().parse_args(argv))


def run(args: argparse.Namespace) -> int:
    """Run the harness for parsed :func:`build_parser` arguments."""
    if args.compare:
        return _run_compare(args)
    areas = AREAS if args.area == "all" else (args.area,)
    out_dir = None if args.no_write else args.out_dir
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    for area in areas:
        print(f"[bench] area={area} quick={args.quick}")
        report = run_area(
            area,
            quick=args.quick,
            warmup=args.warmup,
            repeats=args.repeats,
            out_dir=out_dir,
            progress=lambda msg: print(f"[bench]{msg}"),
        )
        for entry in report["benchmarks"]:
            extra = entry["extra"]
            note = f"  {extra}" if extra else ""
            print(
                f"[bench]   {entry['name']}: "
                f"median {entry['median_s']:.4f}s "
                f"(min {entry['min_s']:.4f}, max {entry['max_s']:.4f})"
                f"{note}"
            )
        if out_dir is not None:
            print(f"[bench] wrote {out_dir}/BENCH_{area}.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
