"""Span tracing installed from outside the program.

:func:`install` wraps the public functions of each layer (synthesis,
tensor network, meet-in-the-middle refinement, enumeration, gridsynth,
pipeline, disk store, simulation) with recorders and returns a callable
that removes them again.  Nothing under ``src/`` changes: the wrappers
replace module attributes and class methods in place.

Two patch-point traps shape :func:`install`:

* ``repro.synthesis.trasyn`` names the re-exported *function*, so the
  module is reached through ``sys.modules``;
* ``synthesize_lowered`` imports ``trasyn`` and ``gridsynth_rz`` from
  their packages at call time, so a function is replaced in *every*
  ``repro`` module that binds it, not only where it is defined.

Each span records name, start, end, parent and op id.  Counters carry
what return values expose and callers drop (``TrasynResult`` fields,
lookup hits).  Spans stay in memory; :meth:`Tracer.chrome_trace` and
:meth:`Tracer.summary` export them when the run ends.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

RUNGS = ("8", "10-6", "10-10", "12-12", "12-12-8")


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    op: str | None
    tid: int


class Tracer:
    """In-memory span and counter recorder (single process)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.op: str | None = None
        self._local = threading.local()
        self._next = 0
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> tuple[int, int | None, float]:
        stack = self._stack()
        with self._lock:
            sid = self._next
            self._next += 1
        parent = stack[-1] if stack else None
        stack.append(sid)
        return sid, parent, time.perf_counter()

    def close(self, name: str, token: tuple[int, int | None, float]) -> None:
        end = time.perf_counter()
        sid, parent, start = token
        self._stack().pop()
        span = Span(sid, name, start, end, parent, self.op,
                    threading.get_ident())
        with self._lock:
            self.spans.append(span)

    def count(self, key: str, n: float = 1) -> None:
        with self._lock:
            self.counters[key] += n

    # -- analysis ----------------------------------------------------------
    def self_times(self, spans: list[Span]) -> dict[int, float]:
        """Span duration minus the part its direct children cover."""
        child = defaultdict(float)
        for s in spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        return {s.sid: (s.end - s.start) - child[s.sid] for s in spans}

    def summary(self, spans: list[Span], wall: float) -> str:
        """Table of self time, count and share of ``wall`` per span name."""
        selfs = self.self_times(spans)
        by_name: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for s in spans:
            row = by_name[s.name]
            row[0] += 1
            row[1] += s.end - s.start
            row[2] += selfs[s.sid]
        lines = [f"{'span':40s} {'count':>7s} {'total_s':>9s} "
                 f"{'self_s':>9s} {'self%':>6s}"]
        for name, (n, tot, slf) in sorted(
            by_name.items(), key=lambda kv: -kv[1][2]
        ):
            share = 100.0 * slf / wall if wall > 0 else 0.0
            lines.append(f"{name:40s} {n:7d} {tot:9.3f} {slf:9.3f} "
                         f"{share:6.1f}")
        return "\n".join(lines)

    def chrome_trace(self, spans: list[Span]) -> dict:
        """Chrome trace-event JSON (opens in Perfetto / chrome://tracing)."""
        t0 = min((s.start for s in spans), default=0.0)
        tids: dict[int, int] = {}
        events = []
        for s in spans:
            events.append({
                "name": s.name,
                "ph": "X",
                "ts": (s.start - t0) * 1e6,
                "dur": (s.end - s.start) * 1e6,
                "pid": 1,
                "tid": tids.setdefault(s.tid, len(tids) + 1),
                "args": {"id": s.sid, "parent": s.parent, "op": s.op},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def _timed(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        token = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(name, token)

    return wrapper


def _rung_name(budgets) -> str:
    return "-".join(
        str(b if isinstance(b, int) else b[1]) for b in budgets
    )


def _patch_function(orig, wrapper, undo: list) -> None:
    """Rebind ``orig`` to ``wrapper`` in every ``repro`` module."""
    for name, mod in list(sys.modules.items()):
        if not name.startswith("repro") or mod is None:
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                undo.append((mod, attr, orig))
                setattr(mod, attr, wrapper)


def _undoer(undo: list):
    def uninstall() -> None:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)
        undo.clear()

    return uninstall


def after_each_trasyn(callback):
    """Call ``callback()`` after every ``trasyn`` call; returns an undo."""
    orig = sys.modules["repro.synthesis.trasyn"].trasyn

    @functools.wraps(orig)
    def trasyn(*args, **kwargs):
        try:
            return orig(*args, **kwargs)
        finally:
            callback()

    undo: list = []
    _patch_function(orig, trasyn, undo)
    return _undoer(undo)


def install(tracer: Tracer):
    """Wrap every traced layer; returns a callable that undoes it."""
    import repro.enumeration.clifford_t as clifford_t
    import repro.experiments.workflows as workflows
    import repro.pipeline.batch as batch
    import repro.sim.evaluate as evaluate
    from repro.pipeline.passes import PassManager
    from repro.pipeline.store.disk import DiskSynthesisStore
    from repro.sim.backends.base import SimulatorBackend
    from repro.sim.backends.density import DensityMatrixBackend
    from repro.sim.backends.statevector import StatevectorTrajectoryBackend
    from repro.synthesis.gridsynth import gridsynth_rz, gridsynth_u3
    from repro.synthesis.meet import QuaternionIndex, refine_pairs
    from repro.tensornet import TraceMPS

    trasyn_mod = sys.modules["repro.synthesis.trasyn"]
    undo: list[tuple[object, str, object]] = []

    def patch_function(orig, wrapper) -> None:
        _patch_function(orig, wrapper, undo)

    def patch_method(cls, attr: str, make) -> None:
        orig = cls.__dict__[attr]
        undo.append((cls, attr, orig))
        setattr(cls, attr, make(orig))

    def timed_method(name: str):
        return lambda orig: _timed(tracer, name, orig)

    # -- trasyn: entry point, per-rung synthesize, step 3 -------------------
    trasyn_state = threading.local()
    orig_trasyn = trasyn_mod.trasyn
    orig_synthesize = trasyn_mod.synthesize

    @functools.wraps(orig_trasyn)
    def trasyn(*args, **kwargs):
        trasyn_state.results = []
        token = tracer.open("trasyn")
        try:
            seq = orig_trasyn(*args, **kwargs)
        finally:
            tracer.close("trasyn", token)
        results = trasyn_state.results
        trasyn_state.results = None
        tracer.count("trasyn.calls")
        tracer.count("trasyn.t_count", seq.t_count)
        for rung, res in results:
            if res.sequence is seq:
                tracer.count("trasyn.raw_t_count", res.raw_t_count)
        if results:
            tracer.count(f"trasyn.stop_rung.{results[-1][0]}")
        return seq

    @functools.wraps(orig_synthesize)
    def synthesize(target, t_budgets, *args, **kwargs):
        rung = _rung_name(t_budgets)
        token = tracer.open(f"trasyn.rung.{rung}")
        try:
            res = orig_synthesize(target, t_budgets, *args, **kwargs)
        finally:
            tracer.close(f"trasyn.rung.{rung}", token)
        results = getattr(trasyn_state, "results", None)
        if results is not None:
            results.append((rung, res))
            tracer.count("trasyn.samples_drawn", res.samples_drawn)
        return res

    patch_function(orig_trasyn, trasyn)
    patch_function(orig_synthesize, synthesize)
    patch_function(
        trasyn_mod.simplify_sequence,
        _timed(tracer, "trasyn.simplify_sequence",
               trasyn_mod.simplify_sequence),
    )

    # -- tensornet and meet ------------------------------------------------
    patch_method(TraceMPS, "__init__", timed_method("tensornet.TraceMPS"))
    patch_method(TraceMPS, "sample", timed_method("tensornet.sample"))
    patch_method(TraceMPS, "best_first", timed_method("tensornet.best_first"))
    patch_function(
        refine_pairs, _timed(tracer, "meet.refine_pairs", refine_pairs)
    )
    patch_method(QuaternionIndex, "nearest", timed_method("meet.nearest"))

    # -- enumeration: table loads (spans) and lookups (counters only: the
    # simplify loop calls lookup tens of thousands of times per op) -------
    patch_function(
        clifford_t.get_table,
        _timed(tracer, "enumeration.get_table", clifford_t.get_table),
    )

    def counted_lookup(orig):
        @functools.wraps(orig)
        def lookup(self, u):
            idx = orig(self, u)
            tracer.count("enumeration.lookup.calls")
            if idx is not None:
                tracer.count("enumeration.lookup.hits")
            return idx

        return lookup

    patch_method(clifford_t.UnitaryTable, "lookup", counted_lookup)

    # -- gridsynth -----------------------------------------------------------
    patch_function(
        gridsynth_rz, _timed(tracer, "gridsynth.gridsynth_rz", gridsynth_rz)
    )
    patch_function(
        gridsynth_u3, _timed(tracer, "gridsynth.gridsynth_u3", gridsynth_u3)
    )

    # -- pipeline ------------------------------------------------------------
    patch_function(
        workflows.matched_thresholds,
        _timed(tracer, "pipeline.matched_thresholds",
               workflows.matched_thresholds),
    )
    patch_function(
        workflows.best_transpile,
        _timed(tracer, "pipeline.lower", workflows.best_transpile),
    )
    patch_function(
        batch.compile_circuit,
        _timed(tracer, "pipeline.compile_circuit", batch.compile_circuit),
    )
    patch_function(
        batch.synthesize_lowered,
        _timed(tracer, "pipeline.synthesize_lowered",
               batch.synthesize_lowered),
    )
    patch_method(PassManager, "run", timed_method("pipeline.PassManager.run"))

    # -- disk store ------------------------------------------------------------
    for attr in ("get", "get_fallback", "flush"):
        patch_method(DiskSynthesisStore, attr, timed_method(f"store.{attr}"))

    # -- simulation ------------------------------------------------------------
    patch_function(
        evaluate.evaluate_fidelity,
        _timed(tracer, "sim.evaluate_fidelity", evaluate.evaluate_fidelity),
    )
    for cls, engine in (
        (DensityMatrixBackend, "density"),
        (StatevectorTrajectoryBackend, "statevector"),
    ):
        patch_method(cls, "run", timed_method(f"sim.run.{engine}"))
    # Both engines inherit the dense reference from the base class.
    patch_method(SimulatorBackend, "make_reference",
                 timed_method("sim.make_reference"))

    return _undoer(undo)
