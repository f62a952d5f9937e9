"""Circuit-level compilation on top of the pass pipeline and cache.

:func:`compile_circuit` is the full transpile→synthesize flow of paper
Figure 3(a) as one call and the only place routing, lowering and
variant selection happen: route onto a target, lower through the preset
pipelines, then replace every nontrivial rotation with a Clifford+T
word via the shared :class:`SynthesisCache`.  :func:`compile_batch` runs many circuits
through it on a ``concurrent.futures`` thread pool — or, with
``workers='process'``, on a true process pool whose workers share the
on-disk segment store (``cache_dir=``) for cross-process reuse.

Determinism: each rotation's synthesis RNG is derived from
``(seed, cache key)`` rather than shared across the walk, so results do
not depend on gate order, circuit order, cache warmth, or worker
scheduling — a cold serial run, a warm run, a thread-pool batch, and a
process-pool batch all produce byte-identical circuits.
"""

from __future__ import annotations

import hashlib
import os
import struct
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.circuits import (
    Circuit,
    clifford_count,
    is_trivial_angle,
    t_count,
    t_depth,
)
from repro.circuits.circuit import Gate, shared_gate
from repro.pipeline.cache import SynthesisCache, bucket_eps, key_rz, key_u3
from repro.pipeline.presets import (
    _preset_grid,
    best_preset_lowering,
    preset_pipeline,
)
from repro.synthesis import GateSequence
from repro.synthesis.budget import check_threshold

DEFAULT_EPS = 0.007  # the paper's RQ3 per-rotation threshold

#: Objectives ``compile_circuit`` can optimize the preset/target
#: variant grid for: fewest nontrivial rotations (the paper's Section
#: 3.4 criterion), shortest timed schedule, or highest predicted
#: success probability under the target's calibration.
OBJECTIVES = ("count", "depth", "esp")


def default_num_processes() -> int:
    """Worker-pool size for CPU-bound compilation on this host.

    The ``default_num_processes`` idiom from qiskit's parallel
    defaults: the CPUs this process may actually run on (its scheduler
    affinity, which cgroup/container limits shrink) rather than the
    machine's raw core count, overridable with the
    ``REPRO_NUM_PROCESSES`` environment variable.
    """
    env = os.environ.get("REPRO_NUM_PROCESSES")
    if env:
        try:
            n = int(env)
        except ValueError as exc:
            raise ValueError(
                f"REPRO_NUM_PROCESSES must be an integer, got {env!r}"
            ) from exc
        if n < 1:
            raise ValueError("REPRO_NUM_PROCESSES must be >= 1")
        return n
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # platforms without affinity (macOS, Windows)
        return max(1, os.cpu_count() or 1)


def map_parallel(fn, items: Sequence, max_workers: int | None = None) -> list:
    """Map ``fn`` over ``items`` on a thread pool, preserving order.

    The shared fan-out primitive behind :func:`compile_batch` and the
    trajectory simulation backend: ``max_workers=1`` (or a single item)
    degrades to a serial loop, otherwise a ``ThreadPoolExecutor`` of
    ``max_workers`` threads (default: one per item, capped at CPU
    count) is used.  Results must not depend on scheduling — callers
    are responsible for deriving any randomness per item, not per
    worker.
    """
    if max_workers is None:
        max_workers = max(1, min(len(items), os.cpu_count() or 1))
    if max_workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        return list(pool.map(fn, items))

_WORKFLOW_BASIS = {"trasyn": "u3", "gridsynth": "rz"}

# Gate-name mapping from synthesis tokens to the circuit IR ("I" is dropped).
_TOKEN_TO_IR = {
    "H": "h", "S": "s", "Sdg": "sdg", "T": "t", "Tdg": "tdg",
    "X": "x", "Y": "y", "Z": "z",
}


@dataclass
class SynthesizedCircuit:
    """A Clifford+T circuit with synthesis provenance."""

    circuit: Circuit
    n_rotations: int
    total_synthesis_error: float  # additive upper bound over rotations
    wall_time: float
    #: Layout/routing provenance when compiled against a hardware
    #: target (:class:`repro.target.RoutingResult`), else None.
    routing: object | None = None
    #: ASAP timed schedule of the final circuit
    #: (:class:`repro.schedule.Schedule`) when compiled against a
    #: target or a time/noise objective, else None.
    schedule: object | None = None
    #: Predicted success probability
    #: (:class:`repro.target.EspEstimate`) when a target was given.
    esp_estimate: object | None = None
    #: The objective the winning variant was selected under.
    objective: str = "count"
    #: Per-rotation epsilon allocation when compiled under an
    #: ``eps_budget`` (flat-order slice per synthesized rotation).
    eps_allocation: tuple[float, ...] | None = None

    @property
    def esp(self) -> float | None:
        """Predicted success probability, if estimated."""
        return self.esp_estimate.esp if self.esp_estimate is not None else None

    @property
    def makespan(self) -> float | None:
        """Schedule length of the final circuit, if scheduled.

        ``is not None`` matters: a gate-free circuit's Schedule has
        ``len() == 0`` and is falsy, but its makespan (0.0) is real.
        """
        return self.schedule.makespan if self.schedule is not None else None

    @property
    def t_count(self) -> int:
        return t_count(self.circuit)

    @property
    def t_depth(self) -> int:
        return t_depth(self.circuit)

    @property
    def clifford_count(self) -> int:
        return clifford_count(self.circuit)


def append_sequence(circuit: Circuit, seq_gates, qubit: int) -> None:
    """Splice a matrix-ordered gate sequence onto one wire (time order).

    The qubit is checked once; every token is a shared parameterless gate.
    """
    qubits = (int(qubit),)
    if not 0 <= qubits[0] < circuit.n_qubits:
        raise ValueError(f"qubit {qubit} out of range for {circuit.n_qubits}")
    circuit.gates.extend([shared_gate(_TOKEN_TO_IR[token], qubits)
                          for token in reversed(list(seq_gates)) if token != "I"])


def trivial_u3_sequence(g: Gate) -> GateSequence:
    """Exact Clifford+T word for a U3 whose angles are pi/4 multiples."""
    from repro.enumeration import get_table
    from repro.synthesis.trasyn import synthesize

    table = get_table(2)
    res = synthesize(g.matrix(), [2], table=table,
                     rng=np.random.default_rng(0))
    return res.sequence


def rng_for_key(seed: int, key: tuple) -> np.random.Generator:
    """Deterministic per-rotation generator derived from the cache key.

    Hashing the key decouples each synthesis from every other one, so a
    cached result is identical no matter which gate, circuit, thread,
    or process computes it first.
    """
    digest = hashlib.sha256(f"{seed}|{key!r}".encode()).digest()
    return np.random.default_rng(np.frombuffer(digest, dtype=np.uint64))


def synthesize_lowered(
    lowered: Circuit,
    basis: str,
    eps: float,
    cache: SynthesisCache,
    seed: int,
    name: str | None = None,
    eps_schedule: Sequence[float] | None = None,
) -> SynthesizedCircuit:
    """Replace every nontrivial rotation of a lowered circuit.

    ``basis='u3'`` expects CX+U3 and synthesizes with trasyn;
    ``basis='rz'`` expects CX+H+Rz and synthesizes with gridsynth.
    On a cache miss trasyn draws from :func:`rng_for_key` of ``seed``
    and the rotation's key (gridsynth is deterministic).

    ``eps_schedule`` overrides the flat ``eps`` with one threshold per
    nontrivial rotation in flat gate order — the consumption side of
    :func:`repro.synthesis.allocate_eps_budget` (trivial-angle
    rotations synthesize exactly and consume no slice).  A schedule
    whose length differs from the rotation count raises ``ValueError``.

    Every effective threshold is snapped down to its log-spaced band
    floor (:func:`repro.pipeline.cache.bucket_eps`) before both the
    cache key and the synthesis call, so keys are shared across nearby
    requests and a cached word always satisfies the band it is keyed
    under.  Bucketing only tightens a threshold, so error bounds and
    budget sums still hold.
    """
    from repro.synthesis import trasyn
    from repro.synthesis.gridsynth import gridsynth_rz
    from repro.synthesis.gridsynth.exact_synthesis import t_power_tokens

    if basis not in _WORKFLOW_BASIS.values():
        raise ValueError("basis must be 'u3' or 'rz'")
    start = time.monotonic()
    out = Circuit(lowered.n_qubits, name=name or lowered.name)
    n_rot = 0
    total_err = 0.0
    # Exact words of pi/4-multiple U3s, by the parameters' packed bits
    # (0.0 and -0.0 stay apart); this call's alone, so nothing warms.
    trivial: dict[bytes, GateSequence] = {}

    def next_eps() -> float:
        if eps_schedule is None:
            return eps
        if n_rot > len(eps_schedule):
            raise ValueError(
                f"eps_schedule has {len(eps_schedule)} entries but the "
                f"circuit has more nontrivial rotations"
            )
        return float(eps_schedule[n_rot - 1])

    for g in lowered.gates:
        if basis == "u3" and g.name == "u3":
            q = g.qubits[0]
            if all(is_trivial_angle(p) for p in g.params):
                bits = struct.pack("3d", *g.params)
                if bits not in trivial:
                    trivial[bits] = trivial_u3_sequence(g)
                append_sequence(out, trivial[bits].gates, q)
                continue
            n_rot += 1
            eps_g = bucket_eps(next_eps())
            key = key_u3(*g.params, eps_g)
            target = g.matrix()
            seq = cache.get_or(
                key,
                lambda: trasyn(
                    target, error_threshold=eps_g,
                    rng=rng_for_key(seed, key),
                ),
            )
            total_err += seq.error
            append_sequence(out, seq.gates, q)
        elif basis == "rz" and g.name == "rz":
            q = g.qubits[0]
            theta = g.params[0]
            if is_trivial_angle(theta):
                j = round(theta / (np.pi / 4))
                append_sequence(out, t_power_tokens(j), q)
                continue
            n_rot += 1
            eps_g = bucket_eps(next_eps())
            key = key_rz(theta, eps_g)
            seq = cache.get_or(key, lambda: gridsynth_rz(theta, eps_g))
            total_err += seq.error
            append_sequence(out, seq.gates, q)
        elif g.name in ("rx", "ry", "rz", "u3"):
            expected = "CX+U3" if basis == "u3" else "CX+H+Rz"
            raise ValueError(f"{basis} flow expects a {expected} circuit")
        else:
            out.gates.append(g)
    if eps_schedule is not None and n_rot < len(eps_schedule):
        raise ValueError(
            f"eps_schedule has {len(eps_schedule)} entries but the "
            f"circuit has only {n_rot} nontrivial rotations"
        )
    return SynthesizedCircuit(
        circuit=out,
        n_rotations=n_rot,
        total_synthesis_error=total_err,
        wall_time=time.monotonic() - start,
        eps_allocation=tuple(eps_schedule) if eps_schedule is not None
        else None,
    )


def _route_to_target(circuit: Circuit, target, layout, cost_aware=None):
    """Layout + route + direction-fix: ``(RoutingResult, fixed circuit)``."""
    from repro.circuits import depth, two_qubit_depth
    from repro.target import fix_gate_directions, route_circuit

    routing = route_circuit(
        circuit, target, layout=layout, cost_aware=cost_aware
    )
    fixed, n_fixes = fix_gate_directions(routing.circuit, target)
    if n_fixes:
        # The result must carry the circuit actually compiled (and
        # its real depths), not the pre-fix orientation.
        routing.circuit = fixed
        routing.metrics.depth_after = depth(fixed)
        routing.metrics.two_qubit_depth_after = two_qubit_depth(fixed)
    routing.metrics.direction_fixes = n_fixes
    return routing, fixed


def _routing_variants(target, layout, objective):
    """The (layout, cost_aware) grid an objective search routes over.

    Always contains the error-agnostic route of the requested layout —
    the pre-cost-model baseline — so an objective search can only ever
    match or beat it.  Calibrated targets add the cost-aware tie-break
    variant; the ESP objective additionally tries the alternate layout
    strategy.
    """
    variants = [(layout, False)]
    if getattr(target, "edge_errors", None):
        variants.append((layout, True))
    if objective == "esp" and isinstance(layout, str):
        alt = "trivial" if layout == "dense" else "dense"
        variants.append((alt, bool(getattr(target, "edge_errors", None))))
    return variants


def _variant_score(objective: str, result: SynthesizedCircuit):
    """Ranking key (lower is better) for one compiled variant."""
    if objective == "esp":
        esp = result.esp if result.esp is not None else 1.0
        return (-esp, result.makespan or 0.0, result.n_rotations)
    if objective == "depth":
        return (result.makespan or 0.0, result.n_rotations,
                len(result.circuit.gates))
    return (result.n_rotations, len(result.circuit.gates))


def _lowerings(
    work: Circuit,
    basis: str,
    objective: str,
    optimization_level: int | str,
    commutation: bool | None,
    validate: str,
) -> Iterator[Circuit]:
    """The lowerings of one route: a fixed level's preset, else the
    fewest-rotations preset for ``'count'`` (Section 3.4) or every
    preset ``commutation`` admits for ``'depth'``/``'esp'``."""
    if optimization_level != "best":
        yield preset_pipeline(
            basis, int(optimization_level), bool(commutation),
            validate=validate,
        ).run(work)
    elif objective == "count":
        yield best_preset_lowering(
            work, basis, commutation, validate=validate
        )
    else:
        for _, lowered in _preset_grid(
            work, (basis,), commutation, validate
        ):
            yield lowered


def compile_circuit(
    circuit: Circuit,
    workflow: str = "trasyn",
    eps: float = DEFAULT_EPS,
    cache: SynthesisCache | None = None,
    seed: int = 0,
    optimization_level: int | str = "best",
    commutation: bool | None = None,
    pre_transpiled: bool = False,
    target=None,
    layout="dense",
    objective: str = "count",
    eps_budget: float | None = None,
    cost_aware: bool | None = None,
    validate: str = "off",
) -> SynthesizedCircuit:
    """Compile one circuit to Clifford+T: route, lower, synthesize, pick.

    **Routes:** the circuit itself without a ``target`` or when
    ``pre_transpiled``; else the circuit laid out, SABRE-routed and
    direction-fixed once for ``objective='count'``, or over
    :func:`_routing_variants` for ``'depth'``/``'esp'``.  **Lowerings:**
    a ``pre_transpiled`` route is its own; else :func:`_lowerings`.
    **Selection:** every lowering is synthesized through the shared
    cache and the first candidate with the lowest objective score wins.

    Parameters
    ----------
    workflow:
        ``'trasyn'`` (CX+U3 lowering, direct U3 synthesis) or
        ``'gridsynth'`` (CX+H+Rz lowering, Rz synthesis).
    eps:
        Per-rotation synthesis threshold; must be finite and positive.
    optimization_level:
        0-4 selects one preset (4 = the paper's level 3 plus the DAG
        cancel/merge/fold fixpoint); ``'best'`` (default) searches the
        full preset grid for the objective's winner.
    commutation:
        Pin the commutation pass on/off; ``None`` means "off" for fixed
        levels and "search both" for ``'best'``.
    pre_transpiled:
        The circuit is already lowered (and placed): synthesize it as
        given, with neither routing nor lowering.
    target:
        A :class:`repro.target.Target` routed onto with initial
        placement ``layout``; the result carries the
        :class:`~repro.target.RoutingResult` as ``result.routing`` plus
        the timed schedule and ESP prediction of the final circuit.
    objective:
        What the candidates are ranked by: ``'count'`` (fewest
        nontrivial rotations, paper Section 3.4), ``'depth'`` (shortest
        timed schedule under the target's gate durations), or ``'esp'``
        (highest predicted success probability under the target's
        calibration).
    eps_budget:
        Circuit-level accuracy budget replacing the flat per-rotation
        ``eps``: :func:`repro.synthesis.allocate_eps_budget` splits it
        across rotations in inverse proportion to their schedule
        criticality, and the allocation is recorded on
        ``result.eps_allocation``.  Must be finite and positive.
    cost_aware:
        Error-aware routing tie-breaks for the ``'count'`` route (see
        :func:`repro.target.route_dag`; ``None`` auto-enables on
        per-edge-calibrated targets).  Pass ``False`` to pin the
        error-agnostic router, e.g. as an experimental baseline.  The
        ``'depth'``/``'esp'`` grid explores both settings regardless.
    validate:
        ``"off"``/``"structural"``/``"full"``: every routed circuit and
        Clifford+T output is checked with
        :func:`repro.analysis.verify_compiled`, the presets run under a
        :class:`repro.analysis.ContractChecker`, and at ``"full"`` the
        schedule is checked for per-qubit overlap.
    """
    from repro.analysis.contracts import VALIDATE_MODES

    if validate not in VALIDATE_MODES:
        raise ValueError(
            f"validate must be one of {VALIDATE_MODES}, got {validate!r}"
        )
    if workflow not in _WORKFLOW_BASIS:
        raise ValueError("workflow must be 'trasyn' or 'gridsynth'")
    if objective not in OBJECTIVES:
        raise ValueError(
            f"objective must be one of {OBJECTIVES}, got {objective!r}"
        )
    if objective == "esp" and target is None:
        # Without calibration every variant scores ESP 1.0 and the
        # "search" would silently degrade to a plain compile.
        raise ValueError(
            "objective='esp' needs a target (its calibration defines the "
            "success probability being maximized)"
        )
    check_threshold("eps", eps)
    if eps_budget is not None:
        check_threshold("eps_budget", eps_budget)
    basis = _WORKFLOW_BASIS[workflow]
    start = time.monotonic()
    if cache is None:
        cache = SynthesisCache()

    def synth(lowered: Circuit, routing) -> SynthesizedCircuit:
        eps_schedule = None
        if eps_budget is not None:
            from repro.synthesis import allocate_eps_budget

            eps_schedule = allocate_eps_budget(lowered, eps_budget, target)
        result = synthesize_lowered(
            lowered, basis, eps, cache, seed,
            name=circuit.name + f"_{workflow}",
            eps_schedule=eps_schedule,
        )
        result.routing = routing
        result.objective = objective
        if target is not None:
            from repro.schedule import schedule_circuit
            from repro.target.cost import estimate_esp

            result.schedule = schedule_circuit(result.circuit, target)
            result.esp_estimate = estimate_esp(
                result.circuit, target, schedule=result.schedule
            )
        elif objective == "depth":
            from repro.schedule import schedule_circuit

            result.schedule = schedule_circuit(result.circuit)
        if validate != "off":
            from repro.analysis import check_schedule, verify_compiled

            verify_compiled(
                result.circuit, target, level=validate, basis="clifford_t"
            )
            if validate == "full" and result.schedule is not None:
                check_schedule(result.schedule)
        return result

    if target is None or pre_transpiled:
        routes = [(None, circuit)]
    else:
        variants = (
            [(layout, cost_aware)] if objective == "count"
            else _routing_variants(target, layout, objective)
        )
        routes = [
            _route_to_target(circuit, target, variant_layout, variant_cost)
            for variant_layout, variant_cost in variants
        ]
        if validate != "off":
            from repro.analysis import verify_compiled

            for _, work in routes:
                verify_compiled(work, target, level=validate)

    best: tuple[tuple, SynthesizedCircuit] | None = None
    for routing, work in routes:
        lowerings = [work] if pre_transpiled else _lowerings(
            work, basis, objective, optimization_level, commutation,
            validate,
        )
        for lowered in lowerings:
            result = synth(lowered, routing)
            score = _variant_score(objective, result)
            # Strict "<": among equal scores the first candidate wins.
            if best is None or score < best[0]:
                best = (score, result)
    if best is None:
        # Reachable only when ``commutation`` filters out every preset.
        raise RuntimeError("compile_circuit produced no candidate")
    result = best[1]
    result.wall_time = time.monotonic() - start
    return result


@dataclass
class BatchResult:
    """Results of a batch compile, in input order."""

    results: list[SynthesizedCircuit]
    wall_time: float
    cache: SynthesisCache

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def summary(self) -> str:
        stats = self.cache.stats()
        lines = [
            f"{len(self.results)} circuits in {self.wall_time:.2f}s "
            f"(cache: {stats.hits} hits / {stats.misses} misses)"
        ]
        for r in self.results:
            lines.append(
                f"  {r.circuit.name or '<unnamed>'}: "
                f"T={r.t_count} Clifford={r.clifford_count} "
                f"rot={r.n_rotations} err<={r.total_synthesis_error:.2e}"
            )
        return "\n".join(lines)


# -- process-pool worker plumbing -----------------------------------------
# One compile context per worker process, installed by the pool
# initializer: a private L1 cache over the shared on-disk L2 (when a
# cache_dir is given) plus the pickled compile kwargs.  Per-key RNG
# derivation makes every worker's output independent of which process
# computes what, so the pool is byte-identical to a serial run.
_WORKER_CTX: dict = {}


def _pool_worker_init(cache_dir: str | None, maxsize, kwargs: dict) -> None:
    store = None
    if cache_dir is not None:
        from repro.pipeline.store import DiskSynthesisStore

        store = DiskSynthesisStore(cache_dir)
    _WORKER_CTX["cache"] = SynthesisCache(maxsize=maxsize, store=store)
    _WORKER_CTX["kwargs"] = kwargs


def _pool_compile_job(circuit: Circuit):
    cache: SynthesisCache = _WORKER_CTX["cache"]
    before = cache.stats()
    result = compile_circuit(
        circuit, cache=cache, **_WORKER_CTX["kwargs"]
    )
    if cache.store is not None:
        # Publish this job's fresh synthesis results so other workers'
        # *future* store opens see them; snapshot reads keep the
        # current batch deterministic regardless.
        cache.store.flush()
    after = cache.stats()
    delta = {
        "hits": after.hits - before.hits,
        "misses": after.misses - before.misses,
        "l2_hits": after.l2_hits - before.l2_hits,
        "l2_fallback_hits": after.l2_fallback_hits
        - before.l2_fallback_hits,
        "l2_misses": after.l2_misses - before.l2_misses,
    }
    return result, delta


def resolve_workers(workers) -> int | None:
    """Normalize a ``workers`` spec to a process count (None = threads).

    ``None``/``'thread'`` selects the thread-pool path; ``'process'``
    a process pool sized by :func:`default_num_processes`; an integer
    ``N >= 1`` a pool of exactly N worker processes.
    """
    if workers is None or workers == "thread":
        return None
    if workers == "process":
        return default_num_processes()
    if isinstance(workers, int) and not isinstance(workers, bool):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        return workers
    raise ValueError(
        f"workers must be None, 'thread', 'process', or an int >= 1, "
        f"got {workers!r}"
    )


def compile_batch(
    circuits: Sequence[Circuit],
    workflow: str = "trasyn",
    eps: float = DEFAULT_EPS,
    cache: SynthesisCache | None = None,
    seed: int = 0,
    max_workers: int | None = None,
    optimization_level: int | str = "best",
    commutation: bool | None = None,
    target=None,
    layout="dense",
    objective: str = "count",
    eps_budget: float | None = None,
    validate: str = "off",
    workers: int | str | None = None,
    cache_dir: str | os.PathLike | None = None,
) -> BatchResult:
    """Compile many circuits concurrently with a shared synthesis cache.

    Two fan-out paths:

    * **Threads** (default, ``workers=None``): ``max_workers=1`` (or a
      single circuit) runs serially, otherwise a thread pool of
      ``max_workers`` (default: one per circuit, capped at CPU count)
      shares one thread-safe cache.  Gridsynth/trasyn are pure-Python
      and CPU-bound, so the GIL caps this path at roughly one core of
      cache-miss throughput — it wins on warm caches, where hits
      dominate and threads avoid pickling.
    * **Processes** (``workers='process'`` or ``workers=N``): a
      ``ProcessPoolExecutor`` compiles circuits in true parallel, one
      private L1 cache per worker over the shared on-disk store named
      by ``cache_dir`` (each worker publishes its fresh results as
      atomic segments).  ``'process'`` sizes the pool with
      :func:`default_num_processes`.  This is the path for cold,
      synthesis-heavy batches.

    Either way, per-key RNG derivation keeps the output independent of
    scheduling: thread, process, and serial runs are gate-for-gate
    identical (given the same store snapshot, when one is used).

    ``cache_dir`` attaches a :class:`repro.pipeline.store.
    DiskSynthesisStore` under whichever path runs — thread workers
    share it through the one cache, process workers each open it — and
    new results are flushed to it before returning.

    A NaN, infinite or non-positive ``eps``/``eps_budget`` raises
    ``ValueError`` before any worker starts.
    """
    check_threshold("eps", eps)
    if eps_budget is not None:
        check_threshold("eps_budget", eps_budget)
    n_processes = resolve_workers(workers)
    store = None
    if cache_dir is not None:
        from repro.pipeline.store import DiskSynthesisStore

        store = DiskSynthesisStore(cache_dir)
    if cache is None:
        cache = SynthesisCache(store=store)
    elif store is not None:
        cache.attach_store(store)
    if cache_dir is None and cache.store is not None:
        # A store attached to the caller's cache serves the process
        # path too: workers re-open it by its directory.
        cache_dir = getattr(cache.store, "root", None)
    start = time.monotonic()

    if n_processes is not None and len(circuits) > 1:
        results = _compile_batch_processes(
            circuits, n_processes, cache, cache_dir,
            dict(
                workflow=workflow, eps=eps, seed=seed,
                optimization_level=optimization_level,
                commutation=commutation, target=target,
                layout=layout, objective=objective, eps_budget=eps_budget,
                validate=validate,
            ),
        )
    else:
        def job(circuit: Circuit) -> SynthesizedCircuit:
            return compile_circuit(
                circuit, workflow=workflow, eps=eps, cache=cache, seed=seed,
                optimization_level=optimization_level,
                commutation=commutation, target=target,
                layout=layout, objective=objective, eps_budget=eps_budget,
                validate=validate,
            )

        serial = 1 if n_processes is not None else max_workers
        results = map_parallel(job, circuits, serial)
    if cache.store is not None:
        cache.store.flush()
    return BatchResult(
        results=results,
        wall_time=time.monotonic() - start,
        cache=cache,
    )


def _compile_batch_processes(
    circuits: Sequence[Circuit],
    n_processes: int,
    cache: SynthesisCache,
    cache_dir,
    kwargs: dict,
) -> list[SynthesizedCircuit]:
    """Fan a batch out over a ``ProcessPoolExecutor`` (see compile_batch)."""
    import pickle

    try:
        pickle.dumps(kwargs)
    except Exception as exc:
        raise ValueError(
            "compile_batch(workers=...) must ship its arguments to worker "
            f"processes, but they do not pickle: {exc!r}; pass picklable "
            "arguments or use the thread path (workers=None)"
        ) from exc
    cache_dir = os.fspath(cache_dir) if cache_dir is not None else None
    with ProcessPoolExecutor(
        max_workers=min(n_processes, len(circuits)),
        initializer=_pool_worker_init,
        initargs=(cache_dir, cache.maxsize, kwargs),
    ) as pool:
        outcomes = list(pool.map(_pool_compile_job, circuits))
    results = []
    for result, delta in outcomes:
        results.append(result)
        cache.absorb_counts(**delta)
    if cache.store is not None:
        # Pick up the segments the workers just published so this
        # process' next batch starts warm.
        cache.store.refresh()
    return results
