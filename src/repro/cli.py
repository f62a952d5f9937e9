"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------
synth-rz       Synthesize one Rz(theta) rotation with gridsynth.
synth-u3       Synthesize an arbitrary unitary (three Euler angles) with trasyn.
compile        Compile an OpenQASM 2.0 file through a synthesis workflow.
compile-batch  Compile many OpenQASM files in parallel with a shared cache.
warm-cache     Precompile a dense Rz catalog into a cross-process store.
verify         Check a circuit's structural/basis/connectivity invariants.
schedule       ASAP/ALAP timed schedule, idle accounting, and predicted ESP.
simulate       Noisy fidelity evaluation through a simulation backend.
catalog        Print the Clifford+T enumeration summary for a T budget.
estimate       Surface-code resource estimate for an OpenQASM file.
bench          Run the standing perf harness (writes BENCH_<area>.json).
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np


def _cmd_synth_rz(args: argparse.Namespace) -> int:
    from repro.synthesis.gridsynth import gridsynth_rz

    seq = gridsynth_rz(args.theta, args.eps)
    print(f"error    : {seq.error:.3e}")
    print(f"T count  : {seq.t_count}")
    print(f"Clifford : {seq.clifford_count}")
    print("gates    :", " ".join(seq.gates))
    return 0


def _cmd_synth_u3(args: argparse.Namespace) -> int:
    from repro.linalg import u3
    from repro.synthesis import trasyn

    target = u3(args.theta, args.phi, args.lam)
    seq = trasyn(target, error_threshold=args.eps,
                 rng=np.random.default_rng(args.seed))
    print(f"error    : {seq.error:.3e}")
    print(f"T count  : {seq.t_count}")
    print(f"Clifford : {seq.clifford_count}")
    print("gates    :", " ".join(seq.gates))
    return 0


def _load_cache(cache_dir: str | None):
    """The synthesis cache backing a compile command.

    ``cache_dir`` attaches the cross-process segment store as the L2
    tier — the one way a cache persists across runs.
    """
    from repro.pipeline import SynthesisCache

    cache = SynthesisCache()
    if cache_dir:
        from repro.pipeline import DiskSynthesisStore

        cache.attach_store(DiskSynthesisStore(cache_dir))
    return cache


def _report_store(cache) -> None:
    """Print the L2 tier's contribution after a compile command."""
    if cache.store is None:
        return
    stats = cache.stats()
    print(f"disk store            : {stats.l2_hits} exact + "
          f"{stats.l2_fallback_hits} stricter-band hits, "
          f"{stats.l2_misses} misses")
    cache.store.flush()


def _parse_level(value: str) -> int | str:
    """CLI optimization level: 0-4 or the grid-searching 'best'."""
    return value if value == "best" else int(value)


def _parse_noise_rate(value: str) -> float:
    """CLI noise rate: a non-negative number (0 = noiseless)."""
    rate = float(value)
    if not rate >= 0.0:
        raise argparse.ArgumentTypeError(
            f"noise rate must be a non-negative number, got {value!r}"
        )
    return rate


def _parse_threshold(value: str) -> float:
    """CLI ``--eps``/``--eps-budget``: a finite positive number."""
    eps = float(value)
    if not (math.isfinite(eps) and eps > 0.0):
        raise argparse.ArgumentTypeError(
            f"must be a finite positive number, got {value!r}"
        )
    return eps


def _parse_target_arg(spec: str | None):
    """Resolve a ``--target`` spec (or None) to a Target."""
    if spec is None:
        return None
    from repro.target import parse_target

    return parse_target(spec)


def _cmd_compile(args: argparse.Namespace) -> int:
    from repro.circuits import clifford_count, depth, t_count, t_depth
    from repro.circuits.qasm import from_qasm, to_qasm
    from repro.pipeline import compile_circuit

    with open(args.input) as f:
        circuit = from_qasm(f.read())
    cache = _load_cache(args.cache_dir)
    target = _parse_target_arg(args.target)
    result = compile_circuit(
        circuit, workflow=args.workflow, eps=args.eps, cache=cache,
        seed=args.seed, optimization_level=args.optimization_level,
        target=target, layout=args.layout, objective=args.objective,
        eps_budget=args.eps_budget, validate=args.validate,
    )
    out = result.circuit
    if result.routing is not None:
        m = result.routing.metrics
        print(f"target                : {target.name or args.target}")
        print(f"swaps inserted        : {m.swaps_inserted}")
        print(f"direction fixes       : {m.direction_fixes}")
        print(f"routed depth          : {m.depth_before} -> {m.depth_after}")
        print(f"output permutation    : {result.routing.permutation}")
    if result.objective != "count":
        print(f"objective             : {result.objective}")
    if result.schedule is not None:
        print(f"schedule makespan     : {result.makespan:g}")
    if result.esp_estimate is not None:
        print(f"predicted ESP         : {result.esp:.6f}")
    if result.eps_allocation:
        lo, hi = min(result.eps_allocation), max(result.eps_allocation)
        print(f"eps budget allocation : {len(result.eps_allocation)} slices "
              f"in [{lo:.2e}, {hi:.2e}]")
    print(f"rotations synthesized : {result.n_rotations}")
    print(f"T count               : {t_count(out)}")
    print(f"T depth               : {t_depth(out)}")
    print(f"circuit depth         : {depth(out)}")
    print(f"Clifford count        : {clifford_count(out)}")
    print(f"synthesis error bound : {result.total_synthesis_error:.3e}")
    _report_store(cache)
    if args.output:
        from repro.analysis.atomic_io import atomic_write_text

        atomic_write_text(args.output, to_qasm(out))
        print(f"wrote {args.output}")
    return 0


def _cmd_compile_batch(args: argparse.Namespace) -> int:
    from repro.analysis.atomic_io import atomic_write_text
    from repro.circuits.qasm import from_qasm, to_qasm
    from repro.pipeline import compile_batch

    circuits = []
    for path in args.inputs:
        with open(path) as f:
            circuit = from_qasm(f.read())
        if not circuit.name:
            circuit.name = path
        circuits.append(circuit)
    from repro.pipeline.warm import parse_workers_arg

    cache = _load_cache(args.cache_dir)
    target = _parse_target_arg(args.target)
    workers = (
        parse_workers_arg(args.workers) if args.workers is not None else None
    )
    batch = compile_batch(
        circuits, workflow=args.workflow, eps=args.eps, cache=cache,
        seed=args.seed, max_workers=args.jobs, workers=workers,
        optimization_level=args.optimization_level,
        target=target, layout=args.layout, objective=args.objective,
        eps_budget=args.eps_budget, validate=args.validate,
    )
    stats = cache.stats()
    for path, result in zip(args.inputs, batch.results):
        extra = ""
        if result.routing is not None:
            extra = f" swaps={result.routing.swaps_inserted}"
        if result.esp_estimate is not None:
            extra += f" esp={result.esp:.4f}"
        print(f"{path}: rotations={result.n_rotations} "
              f"T={result.t_count} Clifford={result.clifford_count} "
              f"error<={result.total_synthesis_error:.3e}{extra}")
    print(f"circuits compiled : {len(batch)}")
    if target is not None:
        total_swaps = sum(
            r.routing.swaps_inserted for r in batch if r.routing is not None
        )
        print(f"total swaps       : {total_swaps}")
    print(f"total T count     : {sum(r.t_count for r in batch)}")
    print(f"cache hits/misses : {stats.hits}/{stats.misses}")
    if cache.store is not None:
        print(f"disk store        : {stats.l2_hits} exact + "
              f"{stats.l2_fallback_hits} stricter-band hits, "
              f"{stats.l2_misses} misses")
        cache.store.flush()
    print(f"wall time         : {batch.wall_time:.3f}s")
    if args.output_dir:
        import os

        os.makedirs(args.output_dir, exist_ok=True)
        used: dict[str, int] = {}
        for path, result in zip(args.inputs, batch.results):
            base = os.path.splitext(os.path.basename(path))[0]
            # Inputs from different directories may share a basename;
            # suffix repeats so no compiled circuit is overwritten.
            n = used.get(base, 0)
            used[base] = n + 1
            if n:
                base = f"{base}-{n + 1}"
            dest = os.path.join(args.output_dir, f"{base}_compiled.qasm")
            atomic_write_text(dest, to_qasm(result.circuit))
            print(f"wrote {dest}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.analysis import (
        VerificationError,
        check_basis,
        check_connectivity,
        verify_circuit,
    )
    from repro.circuits.qasm import from_qasm

    with open(args.input) as f:
        circuit = from_qasm(f.read())
    target = _parse_target_arg(args.target)
    checks = []
    try:
        verify_circuit(circuit)
        checks.append("structural")
        if args.level == "full":
            if args.basis:
                check_basis(circuit, args.basis)
                checks.append(f"basis[{args.basis}]")
            if target is not None:
                check_connectivity(circuit, target)
                checks.append("connectivity")
    except VerificationError as exc:
        print(f"FAIL {args.input}: {exc}", file=sys.stderr)
        return 1
    print(f"OK {args.input}: {circuit.n_qubits} qubits, "
          f"{len(circuit.gates)} gates ({', '.join(checks)})")
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    from repro.circuits.qasm import from_qasm
    from repro.schedule import schedule_circuit
    from repro.target.cost import estimate_esp

    with open(args.input) as f:
        circuit = from_qasm(f.read())
    target = _parse_target_arg(args.target)
    work = circuit
    if target is not None and args.route:
        from repro.target import fix_gate_directions, route_circuit

        routed = route_circuit(circuit, target, layout=args.layout)
        work, _ = fix_gate_directions(routed.circuit, target)
        print(f"routed onto           : {target.name or args.target} "
              f"({routed.swaps_inserted} swaps)")
    sched = schedule_circuit(work, target, method=args.method)
    print(sched.summary())
    slack = sched.idle_slack()
    busy = {q: sched.busy_time(q) for q in slack}
    for q in sorted(slack):
        print(f"  q{q:<3d} busy {busy[q]:>8g}   idle {slack[q]:>8g}")
    if target is not None and target.is_calibrated:
        est = estimate_esp(work, target, schedule=sched)
        print(est.summary())
    if args.timeline:
        print()
        print(sched.render(width=args.width))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.circuits.qasm import from_qasm
    from repro.sim import NoiseModel, evaluate_fidelity

    with open(args.input) as f:
        circuit = from_qasm(f.read())
    noise = None
    if args.noise_rate > 0:
        if args.noise_model == "t":
            noise = NoiseModel.t_gates_only(args.noise_rate)
        else:
            noise = NoiseModel.non_pauli_gates(args.noise_rate)
    elif args.target:
        # Derive heterogeneous noise from the target's calibration.
        target = _parse_target_arg(args.target)
        try:
            noise = NoiseModel.from_target(target)
        except ValueError as exc:
            # Built-in topology specs carry no calibration; only a
            # saved Target JSON can hold gate_errors.
            print(f"error: {exc} (save a Target JSON with gate_errors, "
                  "or pass --noise-rate)", file=sys.stderr)
            return 2
        print(f"noise from target: {target.name or args.target} "
              f"(max rate {noise.rate:g})")
    fusion = args.fusion
    ev = evaluate_fidelity(
        circuit,
        noise=noise,
        backend=args.sim_backend,
        trajectories=args.trajectories,
        max_bond=args.max_bond,
        seed=args.seed,
        fuse=fusion != "none",
        fuse2q=fusion == "2q",
    )
    print(f"qubits           : {ev.n_qubits}")
    print(f"backend          : {ev.backend}")
    print(f"trajectories     : {ev.n_trajectories}")
    print(f"fidelity         : {ev.fidelity:.6f}")
    if ev.std_error is not None:
        print(f"std error        : {ev.std_error:.2e}")
    if ev.truncation_error > 0:
        print(f"truncated weight : {ev.truncation_error:.2e}")
    print(f"wall time        : {ev.wall_time:.3f}s")
    return 0


def _cmd_catalog(args: argparse.Namespace) -> int:
    from repro.enumeration import expected_unique_count, get_table

    table = get_table(args.budget)
    print(f"unique Clifford+T matrices with T <= {args.budget}: {len(table)}")
    print(f"theoretical 24*(3*2^t-2): {expected_unique_count(args.budget)}")
    for t, size in enumerate(table.level_sizes()):
        print(f"  T={t}: {size}")
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    from repro.circuits.qasm import from_qasm
    from repro.resources import estimate_resources

    with open(args.input) as f:
        circuit = from_qasm(f.read())
    est = estimate_resources(circuit, args.budget)
    print(est.summary())
    return 0


def _add_module_command(sub, name: str, module, help_text: str) -> None:
    """Subcommand ``name`` taking exactly ``module``'s own options.

    The options come from ``module.build_parser()`` and the command runs
    ``module.run(args)``, so the two entry points cannot drift apart.
    """
    parent = module.build_parser()
    p = sub.add_parser(name, parents=[parent], add_help=False,
                       help=help_text, description=parent.description)
    p.set_defaults(func=module.run)


def build_parser() -> argparse.ArgumentParser:
    from repro.bench import __main__ as bench
    from repro.pipeline import warm

    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-rz", help="gridsynth one Rz rotation")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--eps", type=float, default=1e-3)
    p.set_defaults(func=_cmd_synth_rz)

    p = sub.add_parser("synth-u3", help="trasyn an arbitrary unitary")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--phi", type=float, default=0.0)
    p.add_argument("--lam", type=float, default=0.0)
    p.add_argument("--eps", type=float, default=1e-2)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_synth_u3)

    p = sub.add_parser("compile", help="compile an OpenQASM 2.0 circuit")
    p.add_argument("input")
    p.add_argument("--workflow", choices=("trasyn", "gridsynth"),
                   default="trasyn")
    p.add_argument("--eps", type=_parse_threshold, default=0.007)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-O", "--optimization-level", type=_parse_level,
                   choices=(0, 1, 2, 3, 4, "best"), default="best",
                   help="transpile preset 0-4 (4 = DAG passes) or the "
                        "fewest-rotations grid search (default)")
    p.add_argument("--target", default=None,
                   help="hardware target: line:8, ring:12, grid:3x3, "
                        "heavy_hex:3, all_to_all:5, or a target .json")
    p.add_argument("--layout", choices=("trivial", "dense"), default="dense",
                   help="initial placement strategy for --target")
    p.add_argument("--objective", choices=("count", "depth", "esp"),
                   default="count",
                   help="variant-selection objective: fewest rotations "
                        "(default), shortest timed schedule, or highest "
                        "predicted success probability")
    p.add_argument("--eps-budget", type=_parse_threshold, default=None,
                   help="circuit-level accuracy budget split across "
                        "rotations by schedule criticality (replaces the "
                        "flat per-rotation --eps)")
    p.add_argument("--validate", choices=("off", "structural", "full"),
                   default="off",
                   help="verify IR invariants and pass contracts at every "
                        "compilation stage (see repro.analysis)")
    p.add_argument("--output", default=None)
    p.add_argument("--cache-dir", default=None,
                   help="cross-process synthesis store directory to attach "
                        "as the L2 tier (created if missing)")
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser(
        "compile-batch",
        help="compile many OpenQASM circuits in parallel with a shared cache",
    )
    p.add_argument("inputs", nargs="+")
    p.add_argument("--workflow", choices=("trasyn", "gridsynth"),
                   default="trasyn")
    p.add_argument("--eps", type=_parse_threshold, default=0.007)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-O", "--optimization-level", type=_parse_level,
                   choices=(0, 1, 2, 3, 4, "best"), default="best",
                   help="transpile preset 0-4 (4 = DAG passes) or the "
                        "fewest-rotations grid search (default)")
    p.add_argument("--target", default=None,
                   help="hardware target: line:8, ring:12, grid:3x3, "
                        "heavy_hex:3, all_to_all:5, or a target .json")
    p.add_argument("--layout", choices=("trivial", "dense"), default="dense",
                   help="initial placement strategy for --target")
    p.add_argument("--objective", choices=("count", "depth", "esp"),
                   default="count",
                   help="variant-selection objective (see compile)")
    p.add_argument("--eps-budget", type=_parse_threshold, default=None,
                   help="circuit-level accuracy budget split across "
                        "rotations by schedule criticality")
    p.add_argument("--validate", choices=("off", "structural", "full"),
                   default="off",
                   help="verify IR invariants and pass contracts at every "
                        "compilation stage (see repro.analysis)")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker threads (default: one per circuit, "
                        "capped at CPU count)")
    p.add_argument("--workers", default=None, metavar="N|auto",
                   help="compile on a true process pool instead of threads: "
                        "a process count or 'auto' (scheduler-affinity CPU "
                        "count); results are byte-identical to serial")
    p.add_argument("--cache-dir", default=None,
                   help="cross-process synthesis store directory shared by "
                        "all workers as the L2 tier (created if missing)")
    p.add_argument("--output-dir", default=None,
                   help="write each compiled circuit as QASM here")
    p.set_defaults(func=_cmd_compile_batch)

    _add_module_command(
        sub, "warm-cache", warm,
        "precompile a dense Rz catalog into a cross-process store",
    )

    p = sub.add_parser(
        "verify",
        help="check an OpenQASM circuit's structural invariants and, at "
             "--level full, basis and coupling-map compliance",
    )
    p.add_argument("input")
    p.add_argument("--target", default=None,
                   help="coupling map the circuit must comply with "
                        "(line:8, grid:3x3, ..., or a target .json)")
    p.add_argument("--level", choices=("structural", "full"),
                   default="structural",
                   help="structural only (default) or also basis/"
                        "connectivity compliance")
    p.add_argument("--basis", choices=("u3", "rz", "clifford_t"),
                   default=None,
                   help="gate vocabulary the circuit must stay within "
                        "at --level full")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "schedule",
        help="ASAP/ALAP timed schedule with idle accounting and, on "
             "calibrated targets, the predicted success probability",
    )
    p.add_argument("input")
    p.add_argument("--target", default=None,
                   help="hardware target supplying gate durations (and "
                        "calibration for the ESP estimate)")
    p.add_argument("--method", choices=("asap", "alap"), default="asap",
                   help="scheduling discipline (default asap)")
    p.add_argument("--route", action="store_true",
                   help="lay out and route onto --target before scheduling")
    p.add_argument("--layout", choices=("trivial", "dense"), default="dense",
                   help="initial placement strategy for --route")
    p.add_argument("--timeline", action="store_true",
                   help="render the ASCII per-qubit timeline")
    p.add_argument("--width", type=int, default=72,
                   help="timeline width in columns (default 72)")
    p.set_defaults(func=_cmd_schedule)

    p = sub.add_parser(
        "simulate",
        help="simulate an OpenQASM circuit under logical noise and report "
             "the fidelity against its noiseless state",
    )
    p.add_argument("input")
    p.add_argument("--sim-backend",
                   choices=("auto", "density", "statevector", "mps"),
                   default="auto",
                   help="simulation engine (default: size-based auto-dispatch)")
    p.add_argument("--trajectories", type=int, default=None,
                   help="Monte-Carlo trajectory count for the stochastic "
                        "backends (default: 200 statevector / 50 mps)")
    p.add_argument("--noise-rate", type=_parse_noise_rate, default=0.0,
                   help="depolarizing logical error rate (0 = noiseless)")
    p.add_argument("--noise-model", choices=("t", "non-pauli"),
                   default="non-pauli",
                   help="which gates the noise follows (RQ2 vs RQ4 model)")
    p.add_argument("--max-bond", type=int, default=None,
                   help="MPS bond-dimension cap (default 64)")
    p.add_argument("--target", default=None,
                   help="derive a heterogeneous noise model from this "
                        "target's gate error table when --noise-rate is 0 "
                        "(needs a saved Target .json with gate_errors; "
                        "bare topology specs carry no calibration)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fusion", choices=("2q", "1q", "none"), default="2q",
                   help="gate fusion level for the dense engine: same-pair "
                        "2q blocks + 1q runs (default), 1q runs only, or "
                        "off")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("catalog", help="Clifford+T enumeration summary")
    p.add_argument("--budget", type=int, default=6)
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("estimate", help="surface-code resource estimate")
    p.add_argument("input")
    p.add_argument("--budget", type=float, default=1e-2,
                   help="logical error budget")
    p.set_defaults(func=_cmd_estimate)

    _add_module_command(
        sub, "bench", bench,
        "run the standing perf harness (writes BENCH_<area>.json)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
