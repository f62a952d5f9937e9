"""Vectorized optimization kernels over the columnar :class:`DAGTable`.

Each kernel is the only production engine of one DAG pass.  Its
stack-based twin in :mod:`repro.optimizers.dag_passes` is the oracle:
the kernel produces **byte-identical** output (same removed gates, same
fused parameters, same minted ids), and the property tests in
``tests/test_dag_table.py`` hold it to that.
Instead of walking ``DAGNode`` objects one at a time, a kernel gathers
whole candidate populations with boolean masks over the opcode and
successor columns, then resolves the few data-dependent decisions
(overlapping cancellation chains, exact float fusion) on the shrunken
candidate set:

* :func:`cancel_inverses_table` — one gather-and-compare finds every
  wire-adjacent inverse pair (self-inverse set, inverse-pair table,
  symmetric-2q and Rz(a)·Rz(−a) masks); the found heads then seed the
  reference's exact stack traversal (fresh successor check at pop time,
  spliced neighbors pushed on top) run over the flat int columns, so
  newly-formed pairs take precedence over stale snapshot pairs exactly
  as the reference stack order dictates.
* :func:`merge_rotations_table` — the rotation-run candidates are found
  vectorized, then each wire's run folds right-to-left with the exact
  scalar :func:`~repro.optimizers.dag_passes._fuse_1q` (pairwise
  ``math.remainder`` arithmetic is not associative, so a segmented sum
  would drift off the reference bit pattern).
* :func:`fold_phases_table` — the PR-8 uint64 bit-matrix phase folding,
  ported onto flat columns (python-list snapshots of the hot columns,
  no per-node objects).
* :func:`collect_two_qubit_blocks_table` — the pair-preferring Kahn
  scan over int arrays and ready-heaps instead of node objects.

:func:`optimize_table` replaces the rescan-everything fixpoint loop:
each kernel reports the wires it touched, and subsequent rounds seed
the cancel/merge scans from those dirty wires only, so fixpoint cost is
proportional to the work done, not to DAG size.  Soundness: a pair or
run that was absent at a kernel's previous fixpoint can only appear on
a wire some later rewrite touched, so scanning dirty wires finds
exactly what a full rescan would.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from repro.circuits.circuit import Gate
from repro.circuits.dag_table import BOUNDARY, GATE_NAMES, OPCODE, DAGTable
from repro.optimizers.phase_folding import _PHASE_ANGLE, _emit_phase_cached

_TOL = 1e-12
_TWO_PI = 2 * math.pi

_N_OPS = len(GATE_NAMES)
_OP_I = OPCODE["i"]
_OP_CX = OPCODE["cx"]
_OP_RZ = OPCODE["rz"]
_OP_X = OPCODE["x"]
_OP_U3 = OPCODE["u3"]

#: Self-inverse gates (H·H = CX·CX = ... = identity).
_SELF_INV = np.zeros(_N_OPS, dtype=bool)
for _name in ("h", "x", "y", "z", "cx", "cz", "swap"):
    _SELF_INV[OPCODE[_name]] = True

#: opcode -> the opcode it cancels with (s<->sdg, t<->tdg), else -1.
_INV_PARTNER = np.full(_N_OPS, -1, dtype=np.int16)
for _a, _b in (("s", "sdg"), ("t", "tdg")):
    _INV_PARTNER[OPCODE[_a]] = OPCODE[_b]
    _INV_PARTNER[OPCODE[_b]] = OPCODE[_a]

#: Single-axis rotations (cancel when angles sum to 0 mod 2π).
_AXIS_ROT = np.zeros(_N_OPS, dtype=bool)
for _name in ("rx", "ry", "rz"):
    _AXIS_ROT[OPCODE[_name]] = True

#: All rotation gates (merge_rotations candidates).
_ROT = np.zeros(_N_OPS, dtype=bool)
for _name in ("rx", "ry", "rz", "u3"):
    _ROT[OPCODE[_name]] = True

#: Diagonal phase gates fold_phases accumulates (plus rz, handled apart).
_IS_PHASE = np.zeros(_N_OPS, dtype=bool)
for _name in _PHASE_ANGLE:
    _IS_PHASE[OPCODE[_name]] = True

#: Gates fold_phases tracks through without refreshing wires.
_TRANSPARENT = np.zeros(_N_OPS, dtype=bool)
for _name in ("rz", "cx", "x", "i"):
    _TRANSPARENT[OPCODE[_name]] = True

# fold_phases_table traversal kinds: every opcode maps to exactly one
# branch of the hot loop, precomputed so the loop never consults a dict.
_K_PHASE, _K_CX, _K_X, _K_SKIP, _K_REFRESH = range(5)
_FOLD_KIND = np.full(_N_OPS, _K_REFRESH, dtype=np.int8)
for _name in _PHASE_ANGLE:
    _FOLD_KIND[OPCODE[_name]] = _K_PHASE
_FOLD_KIND[_OP_RZ] = _K_PHASE
_FOLD_KIND[_OP_CX] = _K_CX
_FOLD_KIND[_OP_X] = _K_X
_FOLD_KIND[_OP_I] = _K_SKIP

#: Fixed-angle phase opcodes and their angles (rz keeps its param).
_HAS_FIXED_ANGLE = _IS_PHASE
_ANGLE_BY_OP = np.zeros(_N_OPS, dtype=np.float64)
for _name, _theta in _PHASE_ANGLE.items():
    _ANGLE_BY_OP[OPCODE[_name]] = _theta


def _fuse_1q_exact(a: Gate, b: Gate) -> Gate | None:
    """Deferred import of the shared scalar fuser (avoids a cycle)."""
    from repro.optimizers.dag_passes import _fuse_1q

    return _fuse_1q(a, b)


# ---------------------------------------------------------------------------
# cancel_inverses
# ---------------------------------------------------------------------------

def _find_inverse_pairs(
    table: DAGTable, cand: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """All wire-adjacent inverse pairs ``(i, succ)`` among ``cand`` rows.

    One gather over the successor columns per candidate population:
    a row's partner is its successor on *every* wire it touches (for 2q
    rows that means ``succ0 == succ1``, which also forces equal qubit
    sets), and the pair cancels when an opcode mask says so — exactly
    the cases of :func:`~repro.optimizers.dag_passes._is_inverse_pair`.
    Rotation pairs pass a coarse vectorized filter first and the exact
    ``math.remainder`` test scalar-side, keeping float semantics
    bit-identical to the reference.
    """
    op, q0, q1 = table.op, table.q0, table.q1
    s0, s1 = table.succ0, table.succ1
    two = q1[cand] >= 0
    j = np.where(
        two,
        np.where(s0[cand] == s1[cand], s0[cand], BOUNDARY),
        s0[cand],
    )
    ok = j >= 0
    a, j = cand[ok], j[ok]
    if a.size == 0:
        return a, j
    oa, oj = op[a], op[j]
    same = oa == oj
    self_inv = same & _SELF_INV[oa]
    # CX is orientation-sensitive: same qubit *tuple* required.
    self_inv &= np.where(oa == _OP_CX, q0[a] == q0[j], True)
    inv_pair = (_INV_PARTNER[oa] >= 0) & (_INV_PARTNER[oa] == oj)
    rot = same & _AXIS_ROT[oa]
    mask = self_inv | inv_pair | rot
    a, j = a[mask], j[mask]
    rot = (rot & ~(self_inv | inv_pair))[mask]
    if rot.any():
        params = table.params
        keep = np.ones(a.size, dtype=bool)
        for k in np.nonzero(rot)[0].tolist():
            theta = params[a[k], 0] + params[j[k], 0]
            keep[k] = abs(math.remainder(theta, _TWO_PI)) < _TOL
        a, j = a[keep], j[keep]
    return a, j


def _pair_cancels(table: DAGTable, i: int, s: int) -> bool:
    """Scalar :func:`~repro.optimizers.dag_passes._is_inverse_pair` on
    rows already known to be wire-adjacent on every wire of ``i`` (which
    forces equal qubit sets; CX orientation still needs the q0 check)."""
    oi = int(table.op[i])
    os_ = int(table.op[s])
    if oi == os_:
        if _SELF_INV[oi]:
            if oi == _OP_CX:
                return bool(table.q0[i] == table.q0[s])
            return True
        if _AXIS_ROT[oi]:
            theta = float(table.params[i, 0]) + float(table.params[s, 0])
            return abs(math.remainder(theta, _TWO_PI)) < _TOL
        return False
    return bool(_INV_PARTNER[oi] == os_)


def _distinct_sorted(a: int, b: int) -> list[int]:
    """Non-boundary wire-link ids, deduplicated, ascending (the order
    :meth:`CircuitDAG.predecessors`/``successors`` returns)."""
    if b == BOUNDARY or b == a:
        return [a] if a != BOUNDARY else []
    if a == BOUNDARY:
        return [b]
    return [a, b] if a < b else [b, a]


def cancel_inverses_table(
    table: DAGTable, wires: set[int] | None = None
) -> tuple[int, set[int]]:
    """Adjacent-inverse cancellation, byte-identical to the reference.

    One vectorized gather finds every identity row and inverse-pair
    head up front; when that scan comes back empty (the common case in
    dirty-wire fixpoint rounds) the kernel returns without touching the
    table.  Otherwise the found rows seed the reference pass's exact
    stack traversal — seeds ordered by the deterministic Kahn rank
    :meth:`CircuitDAG.topological` uses, each pop re-checking the
    *current* wire successor, spliced neighbors pushed on top — so a
    pair newly formed by an earlier removal is consumed before any
    stale snapshot pair, exactly as the reference stack dictates
    (chains like ``sdg s s sdg sdg`` keep the same surviving ids).
    ``wires`` restricts the seed scan to rows on those wires (the
    dirty-wire fast path of :func:`optimize_table`; sound because a
    pair absent at the kernel's previous fixpoint can only appear on a
    wire some later rewrite touched); ``None`` scans everything.

    Returns ``(gates_removed, wires_touched)``.
    """
    removed = 0
    touched: set[int] = set()
    alive = table.alive
    if wires is None:
        cand = np.nonzero(alive)[0]
    else:
        cand = table.ids_on_wires(wires)
    if cand.size == 0:
        return removed, touched
    ident = cand[table.op[cand] == _OP_I]
    heads, _ = _find_inverse_pairs(table, cand)
    if ident.size == 0 and heads.size == 0:
        return removed, touched

    # Any row whose pair status can change is pushed by the traversal
    # when the enabling removal happens, so seeding with only the rows
    # that *currently* act (identities + pair heads) visits the same
    # action sequence as the reference's full-stack walk.
    rank = {i: k for k, i in enumerate(table.linear_order())}
    seeds = set(ident.tolist()) | set(heads.tolist())
    work = sorted(seeds, key=rank.__getitem__)
    op, q0, q1 = table.op, table.q0, table.q1
    p0, p1 = table.pred0, table.pred1
    s0, s1 = table.succ0, table.succ1
    while work:
        i = work.pop()
        if not alive[i]:
            continue
        if op[i] == _OP_I:
            # Identity rows are 1q: the lone pred rejoins the walk.
            neighbors = _distinct_sorted(int(p0[i]), BOUNDARY)
            touched.add(int(q0[i]))
            table.remove(i)
            removed += 1
            work.extend(neighbors)
            continue
        if q1[i] >= 0:
            s = int(s0[i]) if s0[i] == s1[i] else BOUNDARY
        else:
            s = int(s0[i])
        if s == BOUNDARY or not _pair_cancels(table, i, s):
            continue
        two = q1[i] >= 0
        neighbors = _distinct_sorted(
            int(p0[i]), int(p1[i]) if two else BOUNDARY
        )
        neighbors += [
            x
            for x in _distinct_sorted(
                int(s0[s]), int(s1[s]) if q1[s] >= 0 else BOUNDARY
            )
            if x != i
        ]
        touched.add(int(q0[i]))
        if two:
            touched.add(int(q1[i]))
        table.remove(s)
        table.remove(i)
        removed += 2
        work.extend(n for n in neighbors if alive[n])
    return removed, touched


# ---------------------------------------------------------------------------
# merge_rotations
# ---------------------------------------------------------------------------

def merge_rotations_table(
    table: DAGTable, wires: set[int] | None = None
) -> tuple[int, set[int]]:
    """Batch rotation fusion: rz·rz → rz, u3·u3 → u3 (per-wire runs).

    Candidate rows — rotations whose wire successor is also a rotation —
    are found in one vectorized gather; each wire's candidates then fold
    right-to-left (latest run first, the reference stack order) with the
    exact scalar fuser.  Same-axis pairs add angles through
    ``math.remainder``; pairs involving a u3 take the scalar ZYZ
    fallback; a fused identity deletes both rows and re-exposes the
    predecessor.  Returns ``(gates_removed, wires_touched)``.
    """
    removed = 0
    touched: set[int] = set()
    alive = table.alive
    op, q0 = table.op, table.q0
    succ0, pred0 = table.succ0, table.pred0
    if wires is None:
        base = np.nonzero(alive & _ROT[op])[0]
    else:
        base = table.ids_on_wires(wires)
        base = base[_ROT[op[base]]]
    if base.size == 0:
        return removed, touched
    j = succ0[base]
    ok = j >= 0
    ok[ok] = _ROT[op[j[ok]]]
    cand = base[ok]
    if cand.size == 0:
        return removed, touched
    # Independent per-wire worklists, latest candidates popped first.
    order = np.lexsort((table.pos[cand], q0[cand]))
    cand = cand[order]
    wire_of = q0[cand]
    starts = np.nonzero(
        np.concatenate(([True], wire_of[1:] != wire_of[:-1]))
    )[0].tolist()
    bounds = starts + [cand.size]
    cand_l = cand.tolist()
    for w in range(len(starts)):
        stack = cand_l[bounds[w]: bounds[w + 1]]
        while stack:
            i = stack.pop()
            if not alive[i] or not _ROT[op[i]]:
                continue
            s = int(succ0[i])
            if s == BOUNDARY or not _ROT[op[s]]:
                continue
            same_axis = op[s] == op[i] != _OP_U3
            if not same_axis and _OP_U3 not in (int(op[i]), int(op[s])):
                continue  # mixed axes stay (synthesis handles them better)
            fused = _fuse_1q_exact(table.gate(i), table.gate(s))
            table.remove(s)
            removed += 1
            touched.add(int(q0[i]))
            if fused is None:
                p = int(pred0[i])
                table.remove(i)
                removed += 1
                if p != BOUNDARY:
                    stack.append(p)
            else:
                table.set_gate(i, fused)
                stack.append(i)
    return removed, touched


# ---------------------------------------------------------------------------
# fold_phases
# ---------------------------------------------------------------------------

def fold_phases_table(table: DAGTable) -> tuple[int, set[int]]:
    """Parity-tracked phase folding over the table (bit-mask form).

    The bit-parallel formulation of
    :func:`~repro.optimizers.dag_passes.fold_phases_dag_reference`: each
    wire's parity term is an arbitrary-width python int with one bit per
    parity variable, so the CX update is a single bigint XOR and the
    fold key is the mask itself (parity-set equality is bitmask equality
    under the shared variable numbering).  The traversal snapshots the
    hot columns into flat python lists — no ``DAGNode`` objects, no
    per-node attribute chasing.  Folds exactly the same phases and
    mints exactly the same substitute ids as the set-based reference.
    Returns ``(gates_removed, wires_touched)``.
    """
    n = table.n_qubits
    order = table.linear_order()
    ids = np.asarray(order, dtype=np.int64)
    parity: list[int] = [1 << q for q in range(n)]
    negated: list[bool] = [False] * n
    next_var = n
    # parity bitmask -> [slot row id, accumulated angle, negated, qubit]
    slots: dict[int, list] = {}
    before = len(table)
    removed_wires: set[int] = set()

    # Pre-classify every row and pre-merge its phase angle (fixed phase
    # opcodes and rz params share one theta column), so the traversal
    # below is pure branch-on-int with no per-node dict lookups.
    ops = table.op[ids] if ids.size else np.zeros(0, dtype=np.int16)
    kind_l = _FOLD_KIND[ops].tolist()
    theta_l = np.where(
        _HAS_FIXED_ANGLE[ops],
        _ANGLE_BY_OP[ops],
        table.params[ids, 0] if ids.size else 0.0,
    ).tolist()
    q0_l = table.q0[ids].tolist() if ids.size else []
    q1_l = table.q1[ids].tolist() if ids.size else []
    remove = table.remove

    for k, i in enumerate(order):
        kind = kind_l[k]
        if kind == _K_PHASE:
            q = q0_l[k]
            theta = theta_l[k]
            if negated[q]:
                theta = -theta
            key = parity[q]
            slot = slots.get(key)
            if slot is None:
                slots[key] = [i, theta, negated[q], q]
            else:
                slot[1] += theta
                remove(i)
                removed_wires.add(q)
        elif kind == _K_CX:
            c, t = q0_l[k], q1_l[k]
            parity[t] ^= parity[c]
            negated[t] ^= negated[c]
        elif kind == _K_REFRESH:
            parity[q0_l[k]] = 1 << next_var
            negated[q0_l[k]] = False
            next_var += 1
            q1 = q1_l[k]
            if q1 >= 0:
                parity[q1] = 1 << next_var
                negated[q1] = False
                next_var += 1
        elif kind == _K_X:
            q = q0_l[k]
            negated[q] = not negated[q]
        # _K_SKIP ("i"): tracked through, nothing to do

    # Every slot re-emits unconditionally (even when the word equals the
    # original gate): the minted ids must match the reference pass,
    # because ids break linearization ties downstream.  Two live slots
    # are never wire-adjacent (phase gates between them would share the
    # parity key and have merged), so the whole batch substitutes in one
    # bulk column write.
    subs: list[tuple[int, tuple[Gate, ...]]] = []
    for node_id, angle, negated_at_slot, q in slots.values():
        emitted = -angle if negated_at_slot else angle
        subs.append((node_id, _emit_phase_cached(float(emitted), q)))
        removed_wires.add(q)
    table.substitute_1q_bulk(subs)
    return before - len(table), removed_wires


# ---------------------------------------------------------------------------
# collect_two_qubit_blocks
# ---------------------------------------------------------------------------

def collect_two_qubit_blocks_table(
    table: DAGTable,
) -> list[tuple[tuple[int, int], list[Gate]]]:
    """Pair-preferring Kahn scan over int arrays (no node objects).

    Mirrors :func:`~repro.optimizers.dag_passes
    .collect_two_qubit_blocks_reference` exactly — among all ready rows
    it executes the minimum of ``(0 if fits-open-pair else 1, id)`` —
    but replaces the reference's O(ready²) rescans with two lazy
    min-heaps (all ready rows / currently-fitting rows) plus an
    ``open_pair`` int array per qubit, invalidated lazily.
    """
    from repro.optimizers.resynth import partition_two_qubit_blocks

    import heapq

    from repro.circuits.circuit import Circuit

    n_rows = table.size
    alive = table.alive
    q0_l = table.q0.tolist()
    q1_l = table.q1.tolist()
    p0, p1 = table.pred0, table.pred1
    s0_l = table.succ0.tolist()
    s1_l = table.succ1.tolist()
    indeg = ((p0 >= 0).astype(np.int64) + ((p1 >= 0) & (p1 != p0))).tolist()

    # open pair per qubit as the partner qubit (-1 = none), matching the
    # reference's stale ``open_pair`` dict semantics exactly.
    partner = [-1] * table.n_qubits
    in_ready = np.zeros(n_rows, dtype=bool)
    by_qubit: list[set[int]] = [set() for _ in range(table.n_qubits)]
    all_heap: list[int] = []
    fit_heap: list[int] = []

    def fits(i: int) -> bool:
        q1i = q1_l[i]
        if q1i < 0:
            return partner[q0_l[i]] >= 0
        return partner[q0_l[i]] == q1i and partner[q1i] == q0_l[i]

    def make_ready(i: int) -> None:
        in_ready[i] = True
        heapq.heappush(all_heap, i)
        by_qubit[q0_l[i]].add(i)
        if q1_l[i] >= 0:
            by_qubit[q1_l[i]].add(i)
        if fits(i):
            heapq.heappush(fit_heap, i)

    for i in np.nonzero(alive)[0].tolist():
        if indeg[i] == 0:
            make_ready(i)

    ordered: list[Gate] = []
    remaining = len(table)
    while remaining:
        while fit_heap and not (in_ready[fit_heap[0]] and fits(fit_heap[0])):
            heapq.heappop(fit_heap)
        if fit_heap:
            i = heapq.heappop(fit_heap)
        else:
            while not in_ready[all_heap[0]]:
                heapq.heappop(all_heap)
            i = heapq.heappop(all_heap)
        in_ready[i] = False
        by_qubit[q0_l[i]].discard(i)
        q1i = q1_l[i]
        if q1i >= 0:
            by_qubit[q1i].discard(i)
        ordered.append(table.gate(i))
        remaining -= 1
        if q1i >= 0:
            a, b = q0_l[i], q1i
            partner[a], partner[b] = b, a
            # The new open pair may make previously non-fitting ready
            # rows on these wires fit; re-evaluate just those buckets.
            for q in (a, b):
                for r in by_qubit[q]:
                    if fits(r):
                        heapq.heappush(fit_heap, r)
        s0 = s0_l[i]
        if s0 != BOUNDARY:
            indeg[s0] -= 1
            if indeg[s0] == 0:
                make_ready(s0)
        s1 = s1_l[i]
        if s1 != BOUNDARY and s1 != s0:
            indeg[s1] -= 1
            if indeg[s1] == 0:
                make_ready(s1)
    reordered = Circuit(table.n_qubits, ordered, table.name)
    return partition_two_qubit_blocks(reordered)


# ---------------------------------------------------------------------------
# the incremental fixpoint driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OptimizeStats:
    """Outcome of one :func:`optimize_table` run.

    ``converged`` is False when the round cap cut the fixpoint short —
    the driver has already issued a :class:`UserWarning` in that case,
    and :class:`~repro.pipeline.passes.PassManager` surfaces the flag in
    per-pass metrics.
    """

    removed: int
    rounds: int
    converged: bool
    per_pass: dict[str, int] = field(default_factory=dict)


def optimize_table(table: DAGTable, max_rounds: int = 8) -> OptimizeStats:
    """Dirty-wire fixpoint of cancel → merge → fold over the table.

    Round 1 scans everything; afterwards each kernel's scan is seeded
    with only the wires rewritten since *its own* last fixpoint (work
    found elsewhere would contradict that fixpoint), so iteration cost
    tracks the work actually done.  Phase folding is global by nature
    (parities flow across wires) and runs in full each round.  Honest
    convergence: the stats record whether a zero-work round was reached
    before the cap, and hitting the cap warns once.
    """
    removed = 0
    rounds = 0
    converged = False
    per_pass = {"cancel_inverses": 0, "merge_rotations": 0, "fold_phases": 0}
    cancel_wires: set[int] | None = None
    merge_wires: set[int] | None = None
    for _ in range(max_rounds):
        rounds += 1
        c, t_cancel = cancel_inverses_table(table, cancel_wires)
        if merge_wires is not None:
            merge_wires |= t_cancel
        m, t_merge = merge_rotations_table(table, merge_wires)
        f, t_fold = fold_phases_table(table)
        per_pass["cancel_inverses"] += c
        per_pass["merge_rotations"] += m
        per_pass["fold_phases"] += f
        step = c + m + f
        removed += step
        if step == 0:
            converged = True
            break
        cancel_wires = t_merge | t_fold
        merge_wires = set(t_fold)
    if not converged:
        warnings.warn(
            f"optimize_table stopped at the round cap ({max_rounds}) before "
            "reaching a fixpoint; rerun with a higher max_rounds to finish",
            UserWarning,
            stacklevel=3,
        )
    return OptimizeStats(
        removed=removed, rounds=rounds, converged=converged, per_pass=per_pass
    )
