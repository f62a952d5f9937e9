"""Step 0 of trasyn: enumerate unique Clifford+T matrices per T count.

Every single-qubit Clifford+T unitary with T count exactly ``t`` can be
written (Matsumoto-Amano normal form) as ``P . M`` where ``P`` is one of
the syllables ``T``, ``HT``, ``SHT`` and ``M`` has T count ``t - 1``.
Starting from the 24 Cliffords, a breadth-first sweep therefore
discovers every unique matrix (up to the eight global phases) at each T
count, together with a minimal-cost gate sequence producing it.

The number of unique matrices obeys the law ``24 * (3 * 2^t - 2)``
(Matsumoto & Amano 2008), which the test suite verifies — an end-to-end
check of the exact arithmetic, canonicalization, and search.
"""

from __future__ import annotations

import functools
import os
import threading
import warnings
import zipfile
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.enumeration import vectorized as vec
from repro.gates.cliffords import cliffords
from repro.gates.exact import ExactUnitary

# Syllables in increasing H/S cost so that first-seen deduplication keeps
# the cheapest sequence (T count is already minimal by level order).
_SYLLABLES: tuple[tuple[str, tuple[str, ...], int], ...] = (
    ("T", ("T",), 0),
    ("HT", ("H", "T"), 1),
    ("SHT", ("S", "H", "T"), 2),
)


def expected_unique_count(budget: int) -> int:
    """Theoretical count of unique matrices with T count <= budget."""
    return 24 * (3 * 2**budget - 2)


@dataclass(eq=False)  # identity hash/eq: tables are cached per object
class UnitaryTable:
    """Lookup table of unique Clifford+T matrices up to a T-count budget.

    Attributes
    ----------
    budget:
        Maximum T count enumerated.
    coeffs, karr:
        Exact matrices (see :mod:`repro.enumeration.vectorized`).
    mats:
        Float matrices (N, 2, 2) complex, same order.
    t_counts, hs_costs:
        Per-matrix T count and Clifford (H/S) sequence cost.
    parents, prefixes:
        Sequence encoding: entry i is ``SYLLABLE[prefixes[i]] . parents[i]``;
        Clifford roots have ``parents[i] == -1`` and ``prefixes[i]`` indexing
        the Clifford group element.
    """

    budget: int
    coeffs: np.ndarray
    karr: np.ndarray
    mats: np.ndarray
    t_counts: np.ndarray
    hs_costs: np.ndarray
    parents: np.ndarray
    prefixes: np.ndarray
    key_to_index: dict[bytes, int] = field(repr=False)

    def __len__(self) -> int:
        return self.coeffs.shape[0]

    # -- sequence reconstruction -----------------------------------------
    def sequence(self, index: int) -> tuple[str, ...]:
        """Gate names (matrix product order) whose product is mats[index]."""
        tokens: list[str] = []
        i = int(index)
        while self.parents[i] >= 0:
            tokens.extend(_SYLLABLES[self.prefixes[i]][1])
            i = int(self.parents[i])
        tokens.extend(cliffords()[self.prefixes[i]].sequence)
        return tuple(tokens)

    # -- queries ------------------------------------------------------------
    def indices_for_t_range(self, lo: int, hi: int) -> np.ndarray:
        """Indices of matrices with T count in [lo, hi]."""
        return np.nonzero((self.t_counts >= lo) & (self.t_counts <= hi))[0]

    def lookup(self, u: ExactUnitary) -> int | None:
        """Index of the stored matrix equal to ``u`` up to phase, or None."""
        coeffs, k = vec.exact_to_coeffs(u.reduce())
        index = int(self.lookup_batch(coeffs[None], np.array([k]))[0])
        return None if index < 0 else index

    def lookup_batch(self, coeffs: np.ndarray, karr: np.ndarray) -> np.ndarray:
        """Indices of stored matrices equal up to phase to an exact batch.

        ``coeffs`` (M, 2, 2, 4) and ``karr`` (M,) hold matrices in any
        terms (see :mod:`repro.enumeration.vectorized`); absent ones
        map to ``-1``.
        """
        coeffs, karr = vec.reduce_batch(coeffs, karr)
        get = self.key_to_index.get
        return np.array(
            [get(key, -1) for key in vec.canonical_keys(coeffs, karr)],
            dtype=np.int64,
        )

    @functools.cached_property
    def sequence_lengths(self) -> np.ndarray:
        """Token count of every stored sequence, ``len(self.sequence(i))``."""
        lengths = np.empty(len(self), dtype=np.int64)
        root = self.parents < 0
        roots = np.array([len(c.sequence) for c in cliffords()], dtype=np.int64)
        lengths[root] = roots[self.prefixes[root]]
        syllables = np.array([len(tokens) for _, tokens, _ in _SYLLABLES])
        for t in range(1, self.budget + 1):  # parents sit one level down
            level = self.t_counts == t
            lengths[level] = (
                lengths[self.parents[level]] + syllables[self.prefixes[level]]
            )
        return lengths

    @functools.cached_property
    def right_cosets(self) -> np.ndarray:
        """Right-Clifford cosets: ``(n_cosets, 24)`` rows, ``[r, c]``.

        Every row is its syllable chain times a root Clifford (normal
        form), so the rows sharing a chain are one right coset
        ``{X C}``.  Entry ``[r, c]`` is the row with coset ``r``'s chain
        and root ``cliffords()[c]``; column 0 (the identity) is the
        transversal, in ascending row order.  Derived from ``parents``
        and ``prefixes`` alone, one level at a time.
        """
        if cliffords()[0].sequence != ():
            raise RuntimeError("cliffords()[0] is not the identity")
        n = len(self)
        roots = np.empty(n, dtype=np.int64)
        chains = np.empty(n, dtype=np.int64)
        level = np.nonzero(self.parents < 0)[0]
        roots[level] = self.prefixes[level]
        chains[level] = 0  # the empty chain
        n_cosets = 1
        for t in range(1, self.budget + 1):
            level = np.nonzero(self.t_counts == t)[0]
            parents = self.parents[level]
            roots[level] = roots[parents]
            # A chain is its parent's chain and its syllable; the
            # identity-rooted rows number the new chains in row order.
            keys = chains[parents] * len(_SYLLABLES) + self.prefixes[level]
            lead = roots[level] == 0
            ids = np.full(n_cosets * len(_SYLLABLES), -1, dtype=np.int64)
            ids[keys[lead]] = n_cosets + np.arange(int(lead.sum()))
            chains[level] = ids[keys]
            n_cosets += int(lead.sum())
            if (chains[level] < 0).any():
                raise RuntimeError(f"a T-count-{t} coset has no identity root")
        images = np.full((n_cosets, len(cliffords())), -1, dtype=np.int64)
        images[chains, roots] = np.arange(n)
        if images.size != n or (images < 0).any():
            raise RuntimeError("table rows are not whole right-Clifford cosets")
        return images

    def exact(self, index: int) -> ExactUnitary:
        return vec.coeffs_to_exact(self.coeffs[index], int(self.karr[index]))

    def level_sizes(self) -> list[int]:
        return [int((self.t_counts == t).sum()) for t in range(self.budget + 1)]


def build_table(budget: int) -> UnitaryTable:
    """Enumerate all unique Clifford+T matrices with T count <= budget."""
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    cliffs = cliffords()
    coeffs_list = []
    karr_list = []
    t_list = []
    cost_list = []
    parent_list = []
    prefix_list = []
    key_to_index: dict[bytes, int] = {}

    # Level 0: the 24 Cliffords.
    c0 = np.stack([vec.exact_to_coeffs(c.exact)[0] for c in cliffs])
    k0 = np.array([c.exact.k for c in cliffs], dtype=np.int64)
    c0, k0 = vec.reduce_batch(c0, k0)
    keys0 = vec.canonical_keys(c0, k0)
    for i, key in enumerate(keys0):
        key_to_index[key] = i
        coeffs_list.append(c0[i])
        karr_list.append(int(k0[i]))
        t_list.append(0)
        cost_list.append(cliffs[i].hs_cost)
        parent_list.append(-1)
        prefix_list.append(i)

    frontier = np.arange(len(cliffs))
    for t in range(1, budget + 1):
        fr_coeffs = np.stack([coeffs_list[i] for i in frontier])
        fr_karr = np.array([karr_list[i] for i in frontier], dtype=np.int64)
        # Visit cheaper parents first so ties keep cheap sequences.
        order = np.argsort([cost_list[i] for i in frontier], kind="stable")
        fr_coeffs, fr_karr = fr_coeffs[order], fr_karr[order]
        frontier = frontier[order]
        # Generate candidates for all three syllables, then deduplicate in
        # ascending total-cost order so the cheapest sequence is kept.
        batches = []
        for syl_idx, (_name, tokens, syl_cost) in enumerate(_SYLLABLES):
            gate = ExactUnitary.from_gates(tokens)
            cand, cand_k = vec.left_multiply(gate, fr_coeffs, fr_karr)
            cand, cand_k = vec.reduce_batch(cand, cand_k)
            keys = vec.canonical_keys(cand, cand_k)
            costs = np.array(
                [cost_list[p] + syl_cost for p in frontier], dtype=np.int64
            )
            batches.append((syl_idx, cand, cand_k, keys, costs))
        all_costs = np.concatenate([b[4] for b in batches])
        order = np.argsort(all_costs, kind="stable")
        sizes = [len(b[3]) for b in batches]
        offsets = np.cumsum([0] + sizes)
        new_indices: list[int] = []
        for flat in order:
            batch_no = int(np.searchsorted(offsets, flat, side="right")) - 1
            j = int(flat - offsets[batch_no])
            syl_idx, cand, cand_k, keys, costs = batches[batch_no]
            key = keys[j]
            if key in key_to_index:
                continue
            idx = len(coeffs_list)
            key_to_index[key] = idx
            coeffs_list.append(cand[j])
            karr_list.append(int(cand_k[j]))
            t_list.append(t)
            cost_list.append(int(costs[j]))
            parent_list.append(int(frontier[j]))
            prefix_list.append(syl_idx)
            new_indices.append(idx)
        frontier = np.array(new_indices, dtype=np.int64)

    coeffs = np.stack(coeffs_list)
    karr = np.array(karr_list, dtype=np.int64)
    table = UnitaryTable(
        budget=budget,
        coeffs=coeffs,
        karr=karr,
        mats=vec.batch_to_complex(coeffs, karr),
        t_counts=np.array(t_list, dtype=np.int64),
        hs_costs=np.array(cost_list, dtype=np.int64),
        parents=np.array(parent_list, dtype=np.int64),
        prefixes=np.array(prefix_list, dtype=np.int64),
        key_to_index=key_to_index,
    )
    return table


# ---------------------------------------------------------------------------
# Cached access: tables are deterministic per budget, so memoize in-process
# and (optionally) on disk for reuse across benchmark invocations.
# ---------------------------------------------------------------------------

_TABLE_CACHE: dict[int, UnitaryTable] = {}
# Serializes cold builds: concurrent compile_batch workers must not each
# run build_table (seconds of CPU and a full table of memory per worker).
_TABLE_LOCK = threading.Lock()


def get_table(budget: int, use_disk_cache: bool = True) -> UnitaryTable:
    """Memoized :func:`build_table` (in-process and on-disk caches)."""
    if budget in _TABLE_CACHE:
        return _TABLE_CACHE[budget]
    with _TABLE_LOCK:
        if budget in _TABLE_CACHE:
            return _TABLE_CACHE[budget]
        path = _cache_path(budget)
        if use_disk_cache and path and os.path.exists(path):
            table = _load_table(path, budget)
            if table is not None:
                _TABLE_CACHE[budget] = table
                return table
        table = build_table(budget)
        _TABLE_CACHE[budget] = table
        if use_disk_cache and path:
            _save_table(table, path)
        return table


def _cache_path(budget: int) -> str | None:
    root = os.environ.get(
        "REPRO_CACHE_DIR", os.path.join(os.path.expanduser("~"), ".cache", "repro")
    )
    try:
        os.makedirs(root, exist_ok=True)
    except OSError:
        return None
    return os.path.join(root, f"clifford_t_table_v1_b{budget}.npz")


def _save_table(table: UnitaryTable, path: str) -> None:
    # Write-then-rename: a concurrent reader (another process) must
    # never observe a truncated npz at the final path.
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        np.savez_compressed(
            tmp,
            budget=table.budget,
            coeffs=table.coeffs,
            karr=table.karr,
            t_counts=table.t_counts,
            hs_costs=table.hs_costs,
            parents=table.parents,
            prefixes=table.prefixes,
        )
        # savez appends .npz when the filename lacks the suffix.
        os.replace(f"{tmp}.npz", path)
    except OSError:
        # Disk cache is best-effort, but never leave a partial temp
        # file behind to accumulate in the cache directory.
        try:
            os.unlink(f"{tmp}.npz")
        except OSError:
            pass


def _load_table(path: str, budget: int) -> UnitaryTable | None:
    """The table cached at ``path``, or None (with a warning) if unusable.

    A truncated, corrupt or incomplete file, or one holding another
    budget or row count, is a cache miss: :func:`get_table` rebuilds the
    table and overwrites the file.
    """
    rows = expected_unique_count(budget)

    def read(data, name: str) -> np.ndarray:
        arr = data[name]
        if arr.shape[:1] != (rows,):
            raise ValueError(f"{name} has shape {arr.shape}, not {rows} rows")
        return arr

    try:
        with np.load(path) as data:
            if int(data["budget"]) != budget:
                raise ValueError(f"holds budget {int(data['budget'])}")
            coeffs, karr = read(data, "coeffs"), read(data, "karr")
            # Keyed and expanded before the other arrays are read, which
            # keeps them out of the load's memory peak.
            keys = vec.canonical_keys(coeffs, karr)
            mats = vec.batch_to_complex(coeffs, karr)
            t_counts, hs_costs, parents, prefixes = (
                read(data, name)
                for name in ("t_counts", "hs_costs", "parents", "prefixes")
            )
    except (OSError, ValueError, KeyError, EOFError,
            zipfile.BadZipFile, zlib.error) as exc:
        warnings.warn(
            f"Clifford+T table cache: rebuilding unusable {path}: {exc!r}",
            stacklevel=3,
        )
        return None
    return UnitaryTable(
        budget=budget,
        coeffs=coeffs,
        karr=karr,
        mats=mats,
        t_counts=t_counts,
        hs_costs=hs_costs,
        parents=parents,
        prefixes=prefixes,
        key_to_index={k: i for i, k in enumerate(keys)},
    )
