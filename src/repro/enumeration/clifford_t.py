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
    keys:
        :func:`~repro.enumeration.vectorized.canonical_keys` of every
        matrix, same order (distinct: one row per phase class).
    key_order:
        ``np.argsort(keys)``, the sorter of every lookup: computed by
        :func:`build_table`, read (and checked) by the disk-cache loader.
    """

    budget: int
    coeffs: np.ndarray
    karr: np.ndarray
    mats: np.ndarray
    t_counts: np.ndarray
    hs_costs: np.ndarray
    parents: np.ndarray
    prefixes: np.ndarray
    keys: np.ndarray = field(repr=False)
    key_order: np.ndarray = field(repr=False)

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
        return _find(self.keys, self.key_order,
                     vec.canonical_keys(coeffs, karr))

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


def _find(keys: np.ndarray, order: np.ndarray, queries: np.ndarray
          ) -> np.ndarray:
    """Index of each query in ``keys`` (sorted by ``order``), or -1."""
    pos = np.searchsorted(keys, queries, sorter=order)
    rows = order[np.minimum(pos, len(keys) - 1)]
    return np.where(keys[rows] == queries, rows, -1)


def build_table(budget: int) -> UnitaryTable:
    """Enumerate all unique Clifford+T matrices with T count <= budget."""
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    cliffs = cliffords()
    syllables = [vec.exact_to_coeffs(ExactUnitary.from_gates(tokens))
                 for _, tokens, _ in _SYLLABLES]
    syl_coeffs = np.stack([c for c, _ in syllables])[:, None]
    syl_k = np.array([k for _, k in syllables])[:, None]
    syl_costs = np.array([cost for _, _, cost in _SYLLABLES])

    # One tuple per T count, rows in table order:
    # (coeffs, karr, keys, hs_costs, parents, prefixes).
    c0 = np.stack([vec.exact_to_coeffs(c.exact)[0] for c in cliffs])
    k0 = np.array([c.exact.k for c in cliffs], dtype=np.int64)
    c0, k0 = vec.reduce_batch(c0, k0)
    levels = [(c0, k0, vec.canonical_keys(c0, k0),
               np.array([c.hs_cost for c in cliffs], dtype=np.int64),
               np.full(len(cliffs), -1, dtype=np.int64),
               np.arange(len(cliffs)))]
    first_row = 0  # table row of the previous level's first entry
    for _ in range(budget):
        coeffs, karr, _, costs, _, _ = levels[-1]
        # Visit cheaper parents first so ties keep cheap sequences.
        order = np.argsort(costs, kind="stable")
        cand, cand_k = vec.matmul(syl_coeffs, syl_k,
                                  coeffs[order], karr[order])
        cand, cand_k = vec.reduce_batch(cand.reshape(-1, 2, 2, 4),
                                        cand_k.reshape(-1))
        prefixes = np.repeat(np.arange(len(_SYLLABLES)), len(order))
        parents = np.tile(first_row + order, len(_SYLLABLES))
        costs = np.tile(costs[order], len(_SYLLABLES)) + syl_costs[prefixes]
        first_row += len(order)
        # Keep each matrix's first candidate in ascending total cost (its
        # cheapest sequence) unless a lower T count already holds it.
        by_cost = np.argsort(costs, kind="stable")
        keys = vec.canonical_keys(cand[by_cost], cand_k[by_cost])
        _, first = np.unique(keys, return_index=True)
        first.sort()
        seen = np.concatenate([level[2] for level in levels])
        first = first[_find(seen, np.argsort(seen), keys[first]) < 0]
        new = by_cost[first]
        levels.append((cand[new], cand_k[new], keys[first], costs[new],
                       parents[new], prefixes[new]))

    coeffs, karr, keys, hs_costs, parents, prefixes = (
        np.concatenate(arrays) for arrays in zip(*levels)
    )
    return UnitaryTable(
        budget=budget,
        coeffs=coeffs,
        karr=karr,
        mats=vec.batch_to_complex(coeffs, karr),
        t_counts=np.repeat(np.arange(budget + 1),
                           [len(level[0]) for level in levels]),
        hs_costs=hs_costs,
        parents=parents,
        prefixes=prefixes,
        keys=keys,
        key_order=np.argsort(keys),
    )


# ---------------------------------------------------------------------------
# Cached access: tables are deterministic per budget, so memoize in-process
# and on disk for reuse across benchmark invocations.
# ---------------------------------------------------------------------------

_TABLE_CACHE: dict[int, UnitaryTable] = {}
# Serializes cold builds: concurrent compile_batch workers must not each
# run build_table (seconds of CPU and a full table of memory per worker).
_TABLE_LOCK = threading.Lock()


def get_table(budget: int) -> UnitaryTable:
    """Memoized :func:`build_table` (in-process and on-disk caches)."""
    if budget in _TABLE_CACHE:
        return _TABLE_CACHE[budget]
    with _TABLE_LOCK:
        if budget in _TABLE_CACHE:
            return _TABLE_CACHE[budget]
        path = _cache_path(budget)
        if path and os.path.exists(path):
            table = _load_table(path, budget)
            if table is not None:
                _TABLE_CACHE[budget] = table
                return table
        table = build_table(budget)
        _TABLE_CACHE[budget] = table
        if path:
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
    return os.path.join(root, f"clifford_t_table_v3_b{budget}.npz")


#: The cache file's integer arrays: each is stored in the narrowest
#: signed dtype that holds its values and read back as int64.
_INT_ARRAYS = ("coeffs", "karr", "t_counts", "hs_costs", "parents",
               "prefixes", "key_order")


def _narrowest(arr: np.ndarray) -> np.ndarray:
    """int64 ``arr`` in the narrowest signed dtype holding its values."""
    lo, hi = (int(arr.min()), int(arr.max())) if arr.size else (0, 0)
    for dtype in (np.int8, np.int16, np.int32):
        info = np.iinfo(dtype)
        if info.min <= lo and hi <= info.max:
            return arr.astype(dtype)
    return arr


def _save_table(table: UnitaryTable, path: str) -> None:
    # Uncompressed: a load is then one read per array, with no inflate,
    # and the narrow dtypes keep the file small (b10: 6.9 MB).
    # Write-then-rename: a concurrent reader (another process) must
    # never observe a truncated npz at the final path.
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        np.savez(
            tmp,
            budget=table.budget,
            keys=table.keys,
            **{name: _narrowest(getattr(table, name)) for name in _INT_ARRAYS},
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


def _check_key_order(keys: np.ndarray, order: np.ndarray) -> None:
    """Raise ValueError unless ``order`` sorts ``keys`` strictly.

    Keys are distinct, so a strictly ascending ``keys[order]`` proves
    ``order`` a permutation equal to ``np.argsort(keys)``.
    """
    if order.shape != keys.shape:
        raise ValueError(f"key_order has shape {order.shape}, "
                         f"not {keys.shape}")
    # Checked before indexing: an out-of-range index is an IndexError.
    if order.size and (order.min() < 0 or order.max() >= order.size):
        raise ValueError("key_order indexes outside the table")
    ranked = keys[order]
    if not (ranked[:-1] < ranked[1:]).all():
        raise ValueError("key_order does not sort the keys")


def _load_table(path: str, budget: int) -> UnitaryTable | None:
    """The table cached at ``path``, or None (with a warning) if unusable.

    A truncated, corrupt or incomplete file, or one holding another
    budget, row count or key width, a non-integer array or a key order
    that does not sort the keys, is a cache miss: :func:`get_table`
    rebuilds the table and overwrites the file.
    """
    rows = expected_unique_count(budget)

    def read(data, name: str) -> np.ndarray:
        arr = data[name]
        if arr.shape[:1] != (rows,):
            raise ValueError(f"{name} has shape {arr.shape}, not {rows} rows")
        return arr

    def read_int(data, name: str) -> np.ndarray:
        arr = read(data, name)
        if arr.dtype.kind not in "iu":
            raise ValueError(f"{name} has dtype {arr.dtype}, not an integer")
        return arr.astype(np.int64, copy=False)

    try:
        with np.load(path) as data:
            if int(data["budget"]) != budget:
                raise ValueError(f"holds budget {int(data['budget'])}")
            coeffs, karr = read_int(data, "coeffs"), read_int(data, "karr")
            # Expanded before the other arrays are read, which keeps
            # them out of the load's memory peak.
            mats = vec.batch_to_complex(coeffs, karr)
            t_counts, hs_costs, parents, prefixes, key_order = (
                read_int(data, name)
                for name in ("t_counts", "hs_costs", "parents", "prefixes",
                             "key_order")
            )
            keys = read(data, "keys")
        if keys.shape != (rows,) or keys.dtype != np.dtype("S65"):
            raise ValueError(f"keys are {keys.dtype}{keys.shape}, "
                             f"not S65 ({rows},)")
        _check_key_order(keys, key_order)
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
        keys=keys,
        key_order=key_order,
    )
