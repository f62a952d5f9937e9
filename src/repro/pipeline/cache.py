"""Process-wide memoization of synthesized rotations.

Trotter/QAOA circuits repeat a handful of angles hundreds of times, and
whole benchmark suites repeat them across circuits, so the synthesis
result for a ``(kind, angles, eps, method)`` key is worth keeping far
beyond one circuit.  :class:`SynthesisCache` is a thread-safe LRU shared
by every workflow and by the :func:`repro.pipeline.compile_batch`
worker pool.

Persistence — and the cross-process half of the paper's caching
argument — lives in :mod:`repro.pipeline.store`: pass ``store=`` (a
:class:`~repro.pipeline.store.DiskSynthesisStore`) and the LRU becomes
the L1 write-through tier of a two-level hierarchy — L1 misses probe
the shared on-disk segment store before synthesizing, and fresh results
are written through to it, so a warm cache survives the process.
Per-tier hits land in :class:`CacheStats`.

Epsilon banding
---------------
Keys never carry the caller's exact ``eps`` float.  Thresholds are
bucketed into log-spaced bands (:data:`EPS_BANDS_PER_DECADE` per
decade) and the band *floor* — the strictest value in the band — is
both the key component and the threshold actually synthesized at, so
one cached word provably satisfies every request in its band.  Lookups
through the disk store additionally fall back to stricter bands: a
request at ``eps=1e-3`` can reuse a cataloged ``1e-4`` entry, never the
reverse.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

from repro.synthesis.sequences import GateSequence

# Angles are rounded to this many digits when forming keys, matching the
# historical workflow cache: angles closer than 1e-12 share a synthesis.
KEY_DIGITS = 12

#: Log-spaced epsilon bands per decade of threshold: band edges sit at
#: ``10**(-k / EPS_BANDS_PER_DECADE)``, a factor of ~1.78 apart, so
#: bucketing to the band floor costs at most that factor in precision
#: (a handful of extra T gates) while collapsing the unbounded space of
#: request floats onto a shared, catalog-friendly grid.
EPS_BANDS_PER_DECADE = 4

Key = tuple  # (kind, method, *rounded params, banded eps)


def eps_band(eps: float) -> int:
    """Band index of ``eps``: smallest ``k`` with ``band_eps(k) <= eps``.

    Decade values (1e-2, 1e-3, ...) sit exactly on band edges and map
    to themselves; everything else maps to the next-stricter edge.  The
    inner ``round`` absorbs float noise so ``eps_band(band_eps(k))``
    round-trips to ``k`` exactly.
    """
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps!r}")
    return math.ceil(round(-math.log10(eps) * EPS_BANDS_PER_DECADE, 9))


def band_eps(band: int) -> float:
    """The band's floor: the strictest epsilon inside band ``band``."""
    return 10.0 ** (-band / EPS_BANDS_PER_DECADE)


def bucket_eps(eps: float) -> float:
    """Snap ``eps`` down to its band floor (idempotent).

    The returned threshold is what the pipeline synthesizes at and what
    cache keys carry, so a cached sequence's error is ``<=`` every
    request epsilon that buckets to it.
    """
    return band_eps(eps_band(eps))


def key_rz(theta: float, eps: float, method: str = "gridsynth") -> Key:
    """Cache key for a single Rz(theta) synthesis (eps banded)."""
    return ("rz", method, round(float(theta), KEY_DIGITS), bucket_eps(eps))


def key_u3(
    theta: float, phi: float, lam: float, eps: float, method: str = "trasyn"
) -> Key:
    """Cache key for a direct U3(theta, phi, lam) synthesis (eps banded)."""
    return (
        "u3",
        method,
        round(float(theta), KEY_DIGITS),
        round(float(phi), KEY_DIGITS),
        round(float(lam), KEY_DIGITS),
        bucket_eps(eps),
    )


def stricter_keys(key: Key, depth: int) -> list[Key]:
    """The same rotation's keys in the next ``depth`` stricter bands.

    Keys place the banded epsilon last, so a fallback probe only swaps
    that component.  Used by the disk store's cross-band lookup: any of
    these entries satisfies a request at ``key``'s band.
    """
    band = eps_band(key[-1])
    return [key[:-1] + (band_eps(band + i),) for i in range(1, depth + 1)]


@dataclass(frozen=True)
class CacheStats:
    """Counters snapshot: lifetime per-tier hits/misses plus sizes.

    ``hits``/``misses`` count L1 (in-memory LRU) lookups.  When a disk
    store is attached, every L1 miss that reaches the synthesis path
    also resolves against L2 and lands in exactly one of ``l2_hits``
    (exact key), ``l2_fallback_hits`` (stricter-band reuse), or
    ``l2_misses`` (a real synthesis happened).
    """

    hits: int
    misses: int
    size: int
    maxsize: int | None
    l2_hits: int = 0
    l2_fallback_hits: int = 0
    l2_misses: int = 0
    store_attached: bool = False

    @property
    def computes(self) -> int:
        """Synthesis invocations: L2 misses when a store is attached."""
        return self.l2_misses if self.store_attached else self.misses


class SynthesisCache:
    """Thread-safe LRU of :class:`GateSequence` results by rotation key.

    ``get_or(key, compute)`` memoizes one synthesis per key, with
    bounded size and hit/miss accounting.

    With ``store=`` (a :class:`repro.pipeline.store.DiskSynthesisStore`
    or anything matching its ``get``/``get_fallback``/``put`` surface)
    the LRU becomes the L1 of a two-tier hierarchy: L1 misses consult
    the shared on-disk store — exact key first, then stricter epsilon
    bands — and only synthesize on an L2 miss, writing the fresh result
    through to the store's pending segment.
    """

    def __init__(self, maxsize: int | None = 100_000, store=None):
        if maxsize is not None and maxsize < 1:
            raise ValueError("maxsize must be positive or None")
        self.maxsize = maxsize
        self._store: OrderedDict[Key, GateSequence] = OrderedDict()
        self._lock = threading.Lock()
        self._inflight: dict[Key, threading.Event] = {}
        self._hits = 0
        self._misses = 0
        self._l2_hits = 0
        self._l2_fallback_hits = 0
        self._l2_misses = 0
        self._disk = store

    @property
    def store(self):
        """The attached L2 disk store, or None."""
        return self._disk

    def attach_store(self, store) -> None:
        """Attach an L2 disk store (once; reattaching is an error)."""
        with self._lock:
            if self._disk is not None and self._disk is not store:
                raise ValueError("cache already has a different store")
            self._disk = store

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    def __contains__(self, key: Key) -> bool:
        with self._lock:
            return tuple(key) in self._store

    def get(self, key: Key) -> GateSequence | None:
        key = tuple(key)
        with self._lock:
            seq = self._store.get(key)
            if seq is not None:
                self._store.move_to_end(key)
                self._hits += 1
            else:
                self._misses += 1
            return seq

    def put(self, key: Key, seq: GateSequence) -> GateSequence:
        """Insert unless present; returns the canonical stored value."""
        key = tuple(key)
        with self._lock:
            existing = self._store.get(key)
            if existing is not None:
                self._store.move_to_end(key)
                return existing
            self._store[key] = seq
            if self.maxsize is not None:
                while len(self._store) > self.maxsize:
                    self._store.popitem(last=False)
            return seq

    def get_or(
        self, key: Key, compute: Callable[[], GateSequence]
    ) -> GateSequence:
        """Return the cached sequence, computing and storing on a miss.

        ``compute`` runs outside the lock so workers on *different*
        keys never serialize on synthesis, while workers racing on the
        *same* key coordinate through an in-flight event: one computes,
        the rest wait and read its result, so a cold parallel batch
        synthesizes each unique rotation exactly once.

        When a disk store is attached, the owner resolves an L1 miss
        against it (exact key, then stricter bands) before computing,
        and writes a computed result through to the store.
        """
        key = tuple(key)
        seq = self.get(key)
        if seq is not None:
            return seq
        with self._lock:
            event = self._inflight.get(key)
            owner = event is None
            if owner:
                event = self._inflight[key] = threading.Event()
        if not owner:
            event.wait()
            seq = self.get(key)
            if seq is not None:
                return seq
            # The owner's compute failed; fall back to our own attempt.
            return self.put(key, self._resolve(key, compute))
        try:
            return self.put(key, self._resolve(key, compute))
        finally:
            with self._lock:
                self._inflight.pop(key, None)
            event.set()

    def _resolve(
        self, key: Key, compute: Callable[[], GateSequence]
    ) -> GateSequence:
        """L2 lookup (exact, then stricter bands), else compute+write."""
        if self._disk is None:
            return compute()
        seq = self._disk.get(key)
        if seq is not None:
            with self._lock:
                self._l2_hits += 1
            return seq
        seq = self._disk.get_fallback(key)
        if seq is not None:
            # Promoted into L1 under the *requested* key by the caller;
            # the store keeps only the stricter original.
            with self._lock:
                self._l2_fallback_hits += 1
            return seq
        with self._lock:
            self._l2_misses += 1
        seq = compute()
        self._disk.put(key, seq)
        return seq

    def clear(self) -> None:
        with self._lock:
            self._store.clear()

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                size=len(self._store),
                maxsize=self.maxsize,
                l2_hits=self._l2_hits,
                l2_fallback_hits=self._l2_fallback_hits,
                l2_misses=self._l2_misses,
                store_attached=self._disk is not None,
            )

    def absorb_counts(
        self,
        hits: int = 0,
        misses: int = 0,
        l2_hits: int = 0,
        l2_fallback_hits: int = 0,
        l2_misses: int = 0,
    ) -> None:
        """Fold another tier's counter deltas into this cache's stats.

        The process-pool batch path compiles through per-worker caches;
        their counters are shipped back and absorbed here so the
        parent's :meth:`stats` reflect the whole batch.
        """
        with self._lock:
            self._hits += hits
            self._misses += misses
            self._l2_hits += l2_hits
            self._l2_fallback_hits += l2_fallback_hits
            self._l2_misses += l2_misses
