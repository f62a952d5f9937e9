"""The benchmark's three paper workflows.

Each workload is a fixed list of ops made from the seed; one op is one
paper data point and runs only after the previous one finished (a
closed loop with a single caller).  Every call goes through a module
attribute at call time, so the wrappers of :mod:`tracing` see it.

* ``synth-haar`` (RQ1): seeded Haar targets through ``trasyn`` at fixed
  layouts and ``gridsynth_u3``.  Only the synthesis algorithm runs:
  tensor-network sampling and beam search, ``refine_pairs``,
  ``simplify_sequence``.
* ``compile-cold`` (RQ3): small suite circuits from three categories
  through ``matched_thresholds`` and ``compile_circuit`` for both flows
  with a fresh in-memory cache per pass.  Trasyn walks its threshold
  ladder and the cache serves repeated angles.
* ``noisy-warm`` (RQ4): compile both flows from a warmed disk store and
  simulate under logical noise on the density and the statevector
  engine.  Synthesis computes nothing in the timed part.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile
from dataclasses import dataclass, field

import numpy as np

import oracle

import repro.enumeration.clifford_t as clifford_t
import repro.experiments.workflows as workflows
import repro.pipeline.batch as batch
import repro.sim.evaluate as evaluate
import repro.synthesis as synthesis
import repro.synthesis.gridsynth as gridsynth
from repro.bench_circuits.suite import full_suite
from repro.experiments.rq4_fidelity import RATE_TO_EPS
from repro.linalg import haar_random_u2
from repro.pipeline import SynthesisCache
from repro.pipeline.store.disk import DiskSynthesisStore
from repro.sim import NoiseModel
from repro.sim.backends.base import schedule_cache
from repro.sim.program import ProgramCache

# Tables every workload reads: budget 10 serves the (8,), (10,6) and
# (10,10) rungs, budget 2 the exact words of pi/4-multiple rotations.
TABLE_BUDGETS = (2, 10)

_CACHE_FIELDS = ("hits", "misses", "l2_hits", "l2_fallback_hits", "l2_misses")


@dataclass
class Outcome:
    """What one op produced: its digest, quality and deferred check."""

    digest: str
    trasyn_t: int
    trasyn_cliff: int
    grid_t: int
    payload: tuple
    counters: dict = field(default_factory=dict)


@dataclass
class Verdict:
    ok: bool
    trasyn_infidelity: float
    grid_infidelity: float
    detail: str = ""


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def _gate_list(circuit) -> tuple:
    return tuple((g.name, g.qubits, g.params) for g in circuit.gates)


def load_tables() -> None:
    """Read the enumeration tables from the benchmark's own cache dir."""
    for budget in TABLE_BUDGETS:
        clifford_t.get_table(budget)


def fill_synthesis_memo() -> None:
    """One small multi-slot synthesis off the timed path.

    It fills the per-table memo of nearest-neighbour indexes, which a
    process pays for once; left to the timed part it would land on
    whichever op happens to run first.
    """
    synthesis.synthesize(
        haar_random_u2(np.random.default_rng(0)), [10, 6], n_samples=8,
        rng=np.random.default_rng(0),
    )


def _cache_delta(before, after) -> dict:
    return {f: getattr(after, f) - getattr(before, f) for f in _CACHE_FIELDS}


class SynthHaar:
    name = "synth-haar"
    calibrated = True
    n_targets = 20
    #: Each target runs one fixed layout through the paper's
    #: ``t_budgets`` interface: every tenth the deep (10,10) layout, the
    #: rest (10,6).  A threshold ladder makes the per-target work a
    #: lottery instead: at eps 2e-2 the cheap (8,) scan already sufficed
    #: for 6 of one seed's 24 targets and 2 of another's, and at 1e-2 one
    #: target in six needs the (10,10) rung, so pass times spread by 15%
    #: across seeds.  Compile-cold runs the ladder.
    deep_every = 10
    #: Words are checked against this distance; over 150 Haar targets
    #: the worst (10,6) word was at 1.56e-2.
    eps = 2e-2

    def budgets(self, i: int) -> list[int]:
        return [10, 10] if i % self.deep_every == self.deep_every - 1 else [10, 6]

    def __init__(self, seed: int, state_dir: str, nproc: int):
        self.seed = seed

    def setup(self) -> None:
        load_tables()
        rng = np.random.default_rng(self.seed)
        self.ops = [haar_random_u2(rng) for _ in range(self.n_targets)]

    def warm(self) -> None:
        fill_synthesis_memo()

    def begin_pass(self) -> None:
        pass

    def run_op(self, i: int) -> Outcome:
        u = self.ops[i]
        budgets = self.budgets(i)
        tra = synthesis.trasyn(
            u, t_budgets=budgets, min_tensors=len(budgets),
            rng=np.random.default_rng([self.seed, i]),
        )
        grid = gridsynth.gridsynth_u3(u, self.eps)
        return Outcome(
            digest=_digest(tra.gates, grid.gates),
            trasyn_t=tra.t_count, trasyn_cliff=tra.clifford_count,
            grid_t=grid.t_count,
            payload=(u, tra.gates, grid.gates),
        )

    def verify(self, out: Outcome) -> Verdict:
        u, tra, grid = out.payload
        ok_t, d_t = oracle.check_word(tra, u, self.eps)
        ok_g, d_g = oracle.check_word(grid, u, self.eps)
        return Verdict(ok_t and ok_g, d_t**2, d_g**2,
                       f"distances trasyn={d_t:.3e} gridsynth={d_g:.3e}")

    def close(self) -> None:
        pass


class _CompileBoth:
    """Shared op body: matched thresholds, then both compile flows."""

    base_eps: float
    case_names: tuple[str, ...]

    def __init__(self, seed: int, state_dir: str, nproc: int):
        self.seed = seed
        self.state_dir = state_dir
        self.nproc = nproc

    def setup(self) -> None:
        load_tables()
        by_name = {c.name: c for c in full_suite()}
        self.ops = [by_name[n] for n in self.case_names]

    def _compile(self, case, cache: SynthesisCache):
        u3c, rzc, eps_t, eps_g = workflows.matched_thresholds(
            case.circuit, self.base_eps
        )
        tra = batch.compile_circuit(
            u3c, "trasyn", eps_t, cache=cache, seed=self.seed,
            pre_transpiled=True,
        )
        grid = batch.compile_circuit(
            rzc, "gridsynth", eps_g, cache=cache, seed=self.seed,
            pre_transpiled=True,
        )
        return tra, grid

    def _outcome(self, case, tra, grid, counters, extra=()) -> Outcome:
        return Outcome(
            digest=_digest(_gate_list(tra.circuit), _gate_list(grid.circuit)),
            trasyn_t=tra.t_count, trasyn_cliff=tra.clifford_count,
            grid_t=grid.t_count,
            payload=(case.circuit, tra.circuit, tra.total_synthesis_error,
                     grid.circuit, grid.total_synthesis_error, *extra),
            counters=counters,
        )

    def _check_circuits(self, out: Outcome) -> Verdict:
        ref, tra, err_t, grid, err_g = out.payload[:5]
        ok_t, inf_t = oracle.check_circuit(tra, ref, err_t)
        ok_g, inf_g = oracle.check_circuit(grid, ref, err_g)
        detail = (f"noiseless infidelity trasyn={inf_t:.3e} "
                  f"(bound {err_t**2:.3e}) gridsynth={inf_g:.3e} "
                  f"(bound {err_g**2:.3e})")
        return Verdict(ok_t and ok_g, inf_t, inf_g, detail)

    def close(self) -> None:
        pass


class CompileCold(_CompileBoth):
    name = "compile-cold"
    calibrated = True
    base_eps = batch.DEFAULT_EPS
    #: The smallest circuit of three suite categories.  The fourth
    #: category's smallest, ising_n3, is left out: its five rotations
    #: took 14.6 of a 37 s pass.
    case_names = ("qft_n3", "tfim_n2", "qaoa_n4_p1")

    def warm(self) -> None:
        fill_synthesis_memo()

    def begin_pass(self) -> None:
        # Cold: each pass starts from an empty L1 and no disk store.
        self.cache = SynthesisCache()

    def run_op(self, i: int) -> Outcome:
        before = self.cache.stats()
        tra, grid = self._compile(self.ops[i], self.cache)
        return self._outcome(
            self.ops[i], tra, grid, _cache_delta(before, self.cache.stats())
        )

    def verify(self, out: Outcome) -> Verdict:
        return self._check_circuits(out)


class NoisyWarm(_CompileBoth):
    name = "noisy-warm"
    #: The calibration kernel does not track simulation: rescaling
    #: raised the quartile spread of repeated evaluations of one circuit
    #: from 9% to 12% on one thread.  Raw times are reported; repeated
    #: passes give each op a best-of-N time instead.
    calibrated = False
    #: The 6-qubit circuits dispatch to the density engine, maxcut_n10
    #: to statevector trajectories; it shares its rotation angles with
    #: maxcut_n6, so the store needs no extra warming for it.  Short ops
    #: give each op about seven executions per run to take the best of;
    #: with xy_n10 (3.5-5.7 s) in the pass, runs spread by 15%.
    case_names = ("maxcut_n6", "xy_n6", "maxcut_n10")
    rate = 1e-4
    base_eps = RATE_TO_EPS[1e-4]

    def warm(self) -> None:
        """Fill a private store by compiling every circuit once."""
        self.store_dir = tempfile.mkdtemp(
            prefix="store-", dir=os.path.join(self.state_dir, "tmp")
        )
        store = DiskSynthesisStore(self.store_dir)
        for case in self.ops:
            self._compile(case, SynthesisCache(store=store))
        store.flush()

    def begin_pass(self) -> None:
        pass

    def run_op(self, i: int) -> Outcome:
        case = self.ops[i]
        # A fresh store instance and L1 per op: every rotation is an L2
        # read of the published segments.
        store = DiskSynthesisStore(self.store_dir)
        cache = SynthesisCache(store=store)
        tra, grid = self._compile(case, cache)
        noise = NoiseModel.non_pauli_gates(self.rate)
        # Each op simulates circuits it has just compiled, as an RQ4 sweep
        # does: no compiled program or gate schedule carries over.
        schedule_cache().clear()
        evals = [
            evaluate.evaluate_fidelity(
                res.circuit, case.circuit, noise, seed=self.seed,
                max_workers=self.nproc, program_cache=ProgramCache(),
            )
            for res in (tra, grid)
        ]
        stats = cache.stats()
        counters = {f: getattr(stats, f) for f in _CACHE_FIELDS}
        counters["computes"] = stats.computes
        counters["entries_loaded"] = store.stats().entries_loaded
        counters["trajectories"] = sum(ev.n_trajectories for ev in evals)
        return self._outcome(
            case, tra, grid, counters,
            extra=(evals[0].infidelity, evals[1].infidelity),
        )

    def verify(self, out: Outcome) -> Verdict:
        v = self._check_circuits(out)
        if out.counters["computes"]:
            v.ok = False
            v.detail += (f"; {out.counters['computes']} synthesis computes "
                         f"in the timed part (expected 0)")
        noisy_t, noisy_g = out.payload[5:7]
        return Verdict(v.ok, noisy_t, noisy_g, v.detail)

    def close(self) -> None:
        shutil.rmtree(getattr(self, "store_dir", ""), ignore_errors=True)


WORKLOADS = {w.name: w for w in (SynthHaar, CompileCold, NoisyWarm)}
