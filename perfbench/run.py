"""End-to-end paper-workflow benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload synth-haar --seed 1 --seconds 20 --trace 0

The workloads are in :mod:`workloads`.  After set-up, the run repeats
passes over the workload's seeded op list, one op at a time, until
``--seconds`` have passed and at least one pass is complete.  Outputs
of the first pass are checked by the independent :mod:`oracle` and
give the quality metrics; every later op must reproduce its first-pass
digest.

``--trace 0`` reports the end-to-end metrics.  Each op counts with its
best time over its executions, since host noise only ever adds time.
For the synthesis workloads, times are seconds at a reference host
speed: :mod:`calibrate` samples a fixed kernel around every op and
synthesis call and rescales the work in between.  ``--trace 1`` runs
one untraced pass, then installs the :mod:`tracing` wrappers and
reports the per-layer metrics, averaged per complete traced pass (raw
seconds), plus the traced pass time and the tracing overhead.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

The run keeps its state in ``.perfbench/`` at the repository root:
enumeration tables (built on the first run, outside the timing),
per-run records, traces, and per-seed output digests that later runs
at the same seed and code must match.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / ".perfbench"
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "peak_rss_mb": "MB",
    "t_count_mean": "count",
    "clifford_count_mean": "count",
    "t_ratio_geomean": "ratio",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def code_hash() -> str:
    """Content hash of the program and the benchmark, keying digests."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src" / "repro").rglob("*.py"))
    files += sorted(Path(__file__).resolve().parent.glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment() -> dict:
    """CPU and BLAS threading facts recorded with every run."""
    import numpy as np

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    a = np.ones((256, 256))
    a @ a  # start BLAS worker threads before counting them
    threads = None
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("Threads:"):
                    threads = int(line.split()[1])
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": blas,
        "process_threads_after_blas_call": threads,
        "blas_env": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                      "MKL_NUM_THREADS")
        },
    }


def geomean(values) -> float:
    """Geometric mean of the positive finite values; 0.0 if none."""
    values = [v for v in values if v > 0 and math.isfinite(v)]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def timed(cal, fn):
    """Run ``fn()``; returns ``(result, raw_s, normalized_s)``.

    With ``cal=None`` both times are the raw wall time.
    """
    if cal is None:
        t0 = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t0
        return result, dt, dt
    cal.start()
    try:
        result = fn()
    finally:
        raw, norm = cal.finish()
    return result, raw, norm


def run_passes(wl, seconds, cal, tracer=None, prefix=""):
    """Closed-loop passes over ``wl.ops`` for at least ``seconds``.

    Returns ``(passes, ops)``: per complete pass its raw and normalized
    duration (sums over its ops), op labels and counters; per op
    execution its label, index, raw and normalized latency, outcome or
    error.  Labels are ``<prefix>p<pass>.o<op>``.
    """
    def attempt(i, label):
        token = None
        if tracer is not None:
            tracer.op = label
            token = tracer.open("op")
        try:
            return wl.run_op(i), None
        except Exception:  # a failed op is counted; the loop goes on
            return None, traceback.format_exc()
        finally:
            if token is not None:
                tracer.close("op", token)

    passes, ops = [], []
    start = time.perf_counter()
    p = 0
    while True:
        wl.begin_pass()
        if tracer is not None:
            tracer.counters = Counter()
        execs = []
        for i in range(len(wl.ops)):
            if p > 0 and time.perf_counter() - start >= seconds:
                break
            label = f"{prefix}p{p}.o{i}"
            (out, err), raw, norm = timed(
                cal, functools.partial(attempt, i, label)
            )
            execs.append({"label": label, "op": i, "latency": raw,
                          "norm": norm, "out": out, "error": err})
        ops.extend(execs)
        if len(execs) < len(wl.ops):
            break
        passes.append({
            "wall": sum(e["latency"] for e in execs),
            "norm": sum(e["norm"] for e in execs),
            "labels": {e["label"] for e in execs},
            "counters": Counter(tracer.counters) if tracer else Counter(),
        })
        p += 1
        if time.perf_counter() - start >= seconds:
            break
    return passes, ops


def layer_metrics(tracer, passes, ops, untraced_wall):
    """Per-layer metrics, as means over the complete traced passes."""
    labels = set().union(*(ps["labels"] for ps in passes))
    spans = [s for s in tracer.spans if s.op in labels]
    n = len(passes)
    by_id = {s.sid: s for s in spans}
    totals = defaultdict(float)
    calls = Counter()
    for s in spans:
        totals[s.name] += s.end - s.start
        calls[s.name] += 1
    roots = [s for s in spans if s.name == "op"]
    wall = sum(s.end - s.start for s in roots)

    def inside(span, prefixes) -> bool:
        parent = by_id.get(span.parent)
        while parent is not None:
            if parent.name.startswith(prefixes):
                return True
            parent = by_id.get(parent.parent)
        return False

    def family_time(prefixes) -> float:
        """Time inside spans named with ``prefixes``, nesting counted once."""
        return sum(
            s.end - s.start for s in spans
            if s.name.startswith(prefixes) and not inside(s, prefixes)
        )

    synth = ("trasyn", "gridsynth.")
    pipeline = family_time(("pipeline.compile_circuit",
                            "pipeline.matched_thresholds"))
    pipeline -= sum(
        s.end - s.start for s in spans
        if s.name.startswith(synth) and not inside(s, synth)
        and inside(s, ("pipeline.",))
    )
    counters = Counter()
    for ps in passes:
        counters.update(ps["counters"])
    cache = Counter()
    for rec in ops:
        if rec["out"] is not None and rec["label"] in labels:
            cache.update(rec["out"].counters)

    m: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        m[name] = (value / n, unit)

    def span_pair(metric, span):
        put(f"{metric}.calls", calls[span], "count")
        put(f"{metric}.s", totals[span], "s")

    span_pair("enumeration.get_table", "enumeration.get_table")
    for key in ("calls", "hits"):
        put(f"enumeration.lookup.{key}",
            counters[f"enumeration.lookup.{key}"], "count")
    put("trasyn.calls", counters["trasyn.calls"], "count")
    put("trasyn.s", totals["trasyn"], "s")
    for rung in tracing.RUNGS:
        span_pair(f"trasyn.rung.{rung}", f"trasyn.rung.{rung}")
        put(f"trasyn.stop_rung.{rung}",
            counters[f"trasyn.stop_rung.{rung}"], "count")
    for key in ("samples_drawn", "raw_t_count", "t_count"):
        put(f"trasyn.{key}", counters[f"trasyn.{key}"], "count")
    span_pair("trasyn.simplify_sequence", "trasyn.simplify_sequence")
    span_pair("tensornet.TraceMPS", "tensornet.TraceMPS")
    put("tensornet.sample.s", totals["tensornet.sample"], "s")
    put("tensornet.best_first.s", totals["tensornet.best_first"], "s")
    span_pair("meet.refine_pairs", "meet.refine_pairs")
    span_pair("meet.nearest", "meet.nearest")
    span_pair("gridsynth.gridsynth_rz", "gridsynth.gridsynth_rz")
    for key in ("hits", "misses", "l2_hits", "l2_fallback_hits", "l2_misses"):
        put(f"pipeline.cache.{key}", cache[key], "count")
    lookups = cache["hits"] + cache["misses"]
    m["pipeline.cache.hit_ratio"] = (
        cache["hits"] / lookups if lookups else 0.0, "ratio"
    )
    for key in ("get", "get_fallback", "flush"):
        span_pair(f"store.{key}", f"store.{key}")
    put("store.entries_loaded", cache["entries_loaded"], "count")
    put("pipeline.lower.s", totals["pipeline.lower"], "s")
    span_pair("pipeline.PassManager.run", "pipeline.PassManager.run")
    put("pipeline.synthesize_lowered.s", totals["pipeline.synthesize_lowered"],
        "s")
    put("sim.make_reference.s", totals["sim.make_reference"], "s")
    for engine in ("density", "statevector"):
        span_pair(f"sim.run.{engine}", f"sim.run.{engine}")
    put("sim.trajectories", cache["trajectories"], "count")
    shares = {
        "trasyn": family_time(("trasyn",)),
        "gridsynth": family_time(("gridsynth.",)),
        "pipeline": pipeline,
        "sim": family_time(("sim.evaluate_fidelity",)),
    }
    for key, value in shares.items():
        m[f"share.{key}"] = (value / wall if wall else 0.0, "ratio")
    selfs = tracer.self_times(spans)
    m["trace.self_time_coverage"] = (
        sum(selfs.values()) / wall if wall else 0.0, "ratio"
    )
    traced_wall = statistics.median(ps["norm"] for ps in passes)
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return m, spans, wall


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    for sub in ("tables", "tmp", "runs", "traces", "digests"):
        (STATE / sub).mkdir(parents=True, exist_ok=True)
    # The benchmark's own table cache: neither ~/.cache/repro nor any
    # other checkout changes what set-up reads.
    os.environ["REPRO_CACHE_DIR"] = str(STATE / "tables")
    sys.path.insert(0, str(ROOT / "src"))
    # One caller on one CPU, pinned before NumPy starts its BLAS threads
    # so they inherit it.  On a shared 2-vCPU VM, two-thread simulation
    # times spread 28% across runs and one-thread times 9%.  The BLAS
    # thread count also changes synthesized words (float reduction
    # order), so a fixed count keeps digests comparable across hosts.
    host_cpus = len(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    import repro.enumeration.clifford_t as clifford_t
    import workloads
    from calibrate import Calibration

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    env = environment()
    env["host_cpus"] = host_cpus
    # Untimed preparation: build any missing table once per checkout.
    workloads.load_tables()

    wl = workloads.WORKLOADS[args.workload](
        args.seed, str(STATE), env["nproc"]
    )
    cal = Calibration()
    op_cal = cal if wl.calibrated else None
    # Calibration samples between synthesis calls track the host's speed
    # within long ops.  Tracing and uncalibrated workloads go without.
    unhook = tracing.after_each_trasyn(cal.checkpoint)

    def setup_once():
        # Drop the in-process table memo so each repeat reads the disk.
        clifford_t._TABLE_CACHE.clear()
        wl.setup()

    try:
        setups = [timed(cal, setup_once)[1:] for _ in range(SETUP_REPEATS)]
        _, warm_raw, warm_norm = timed(cal, wl.warm)
        setup_s = statistics.median(n for _, n in setups) + warm_norm

        tracer = None
        untraced_wall = None
        if args.trace or not wl.calibrated:
            unhook()
        if args.trace:
            untraced, first_ops = run_passes(wl, 0.0, op_cal)
            untraced_wall = untraced[0]["norm"]
            tracer = tracing.Tracer()
            uninstall = tracing.install(tracer)
            try:
                passes, traced_ops = run_passes(
                    wl, args.seconds, op_cal, tracer, prefix="traced."
                )
            finally:
                uninstall()
            ops = first_ops + traced_ops
        else:
            passes, ops = run_passes(wl, args.seconds, op_cal)
    finally:
        unhook()
        wl.close()

    # -- correctness: oracle on the first pass, digests everywhere -------
    first = {rec["op"]: rec for rec in ops if rec["label"].startswith("p0.")}
    verdicts = {}
    for i, rec in first.items():
        if rec["out"] is None:
            continue
        v = wl.verify(rec["out"])
        verdicts[i] = v
        if not v.ok:
            print(f"perfbench: op {i} failed the oracle: {v.detail}",
                  file=sys.stderr)
    failed = 0
    for rec in ops:
        base = first[rec["op"]]
        bad = (
            rec["out"] is None
            or base["out"] is None
            or not verdicts[rec["op"]].ok
            or rec["out"].digest != base["out"].digest
        )
        if rec["error"]:
            print(f"perfbench: op {rec['op']} raised:\n{rec['error']}",
                  file=sys.stderr)
        elif rec["out"] is not None and base["out"] is not None and (
            rec["out"].digest != base["out"].digest
        ):
            print(f"perfbench: op {rec['op']} output changed between passes",
                  file=sys.stderr)
        failed += bad
    digests = {str(i): rec["out"].digest if rec["out"] else None
               for i, rec in sorted(first.items())}
    deterministic = True
    digest_file = STATE / "digests" / code_hash() / (
        f"{args.workload}-seed{args.seed}.json"
    )
    if digest_file.exists():
        recorded = json.loads(digest_file.read_text())
        if recorded != digests:
            deterministic = False
            print(f"perfbench: outputs differ from an earlier run at seed "
                  f"{args.seed} ({digest_file})", file=sys.stderr)
    else:
        digest_file.parent.mkdir(parents=True, exist_ok=True)
        digest_file.write_text(json.dumps(digests, indent=1))
    correct = failed == 0 and deterministic

    # -- metrics -------------------------------------------------------------
    outs = [first[i]["out"] for i in sorted(first) if first[i]["out"]]
    ratios = [
        v.grid_infidelity / v.trasyn_infidelity
        for v in verdicts.values() if v.trasyn_infidelity > 0
    ]
    if args.trace:
        layer, spans, traced_wall = layer_metrics(
            tracer, passes, traced_ops, untraced_wall
        )
        layer["quality.infidelity_ratio_geomean"] = (geomean(ratios), "ratio")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        stem = STATE / "traces" / f"{args.workload}-seed{args.seed}"
        Path(f"{stem}.trace.json").write_text(
            json.dumps(tracer.chrome_trace(spans))
        )
        table = tracer.summary(spans, traced_wall)
        Path(f"{stem}.summary.txt").write_text(table + "\n")
        print(table, file=sys.stderr)
    else:
        # Each op's best time over its executions (noise only ever adds
        # time); calibrated workloads in reference-speed seconds.
        best: dict[int, float] = {}
        for r in ops:
            best[r["op"]] = min(r["norm"], best.get(r["op"], math.inf))
        e2e = {
            "setup_s": setup_s,
            "wall_s": sum(best.values()),
            "op_p50_s": statistics.median(best.values()),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
            "t_count_mean": statistics.fmean(o.trasyn_t for o in outs),
            "clifford_count_mean": statistics.fmean(
                o.trasyn_cliff for o in outs),
            "t_ratio_geomean": geomean(
                o.grid_t / max(1, o.trasyn_t) for o in outs),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in e2e.items()}

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": env,
        "calibration_samples_s": cal.samples,
        "setup_s_raw_normalized": setups,
        "warm_s_raw_normalized": [warm_raw, warm_norm],
        "pass_walls_s": [ps["wall"] for ps in passes],
        "pass_walls_normalized_s": [ps["norm"] for ps in passes],
        "ops": [{"label": r["label"], "latency_s": r["latency"],
                 "normalized_s": r["norm"],
                 "digest": r["out"].digest if r["out"] else None}
                for r in ops],
        "oracle": {str(i): v.detail for i, v in sorted(verdicts.items())},
        "infidelity_ratio_geomean": geomean(ratios),
        "metrics": metrics,
    }
    (STATE / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
