"""The cross-process L2 tier: a content-addressed on-disk store.

:class:`DiskSynthesisStore` serves :class:`repro.pipeline.SynthesisCache`
as its shared second level (see the cache-hierarchy analysis the design
follows: a small hot L1 in front of a large shared L2).  The contract
that makes it safe under many concurrent compiler processes:

* **Immutable segments, atomic publish.**  All writes buffer in-process
  (:meth:`put`) and land on disk only through :meth:`flush`, which
  publishes brand-new content-addressed segment files via the
  ``atomic_io`` temp+``os.replace`` idiom.  No file is ever mutated, so
  readers need no locks and crashes can never corrupt published data.

* **Snapshot reads.**  A store instance serves lookups from the set of
  segment files its directory listing showed when it was opened (or
  last :meth:`refresh`-ed), and its own unflushed writes stay invisible
  to lookups (the L1 above holds them).  Results therefore depend only
  on the snapshot — never on how concurrent writers interleave — which
  is what keeps a process-pool batch byte-identical to a serial run.

* **Lazy, sharded loading.**  Keys hash onto a fixed shard fan-out and
  a shard's segments are parsed only on the first lookup that touches
  it — opening a store with a multi-thousand-entry catalog costs one
  ``listdir``, in the spirit of mmap-style laziness.  That listing is
  the store's only index.

* **Epsilon-band fallback.**  :meth:`get_fallback` probes the same
  rotation at stricter epsilon bands (see
  :func:`repro.pipeline.cache.stricter_keys`), so a request at
  ``eps=1e-3`` reuses a cataloged ``1e-4`` word — satisfying by
  construction, never the reverse.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

from repro.pipeline.cache import EPS_BANDS_PER_DECADE, Key, stricter_keys
from repro.pipeline.store import segments as seg
from repro.synthesis.sequences import GateSequence

#: How many stricter bands a fallback lookup probes: two decades'
#: worth, so a 1e-3 request can reuse anything cataloged down to 1e-5.
DEFAULT_FALLBACK_BANDS = 2 * EPS_BANDS_PER_DECADE


@dataclass(frozen=True)
class StoreStats:
    """Snapshot of one store instance's shape and activity."""

    root: str
    n_segments: int
    loaded_shards: int
    entries_loaded: int
    pending: int
    segments_published: int
    skipped_segments: int


class DiskSynthesisStore:
    """Shared on-disk ``key -> GateSequence`` store (see module docs).

    Safe for concurrent use by threads (internal lock) and by multiple
    processes (immutable segments + atomic publishes); every process
    opens its own instance over the same directory.
    """

    def __init__(self, root: str | os.PathLike):
        self.root = os.fspath(root)
        self._lock = threading.RLock()
        self._pending: dict[int, dict[str, dict]] = {}
        self._published = 0
        self._skipped = 0
        os.makedirs(self.root, exist_ok=True)
        self._scan()

    def _scan(self) -> None:
        """(Re)build the segment snapshot from the directory listing."""
        by_shard: dict[int, list[str]] = {}
        for name in seg.list_segments(self.root):
            by_shard.setdefault(seg.shard_of_segment(name), []).append(name)
        self._segments_by_shard = by_shard
        self._shards: dict[int, dict[str, GateSequence]] = {}

    # -- lookups (snapshot only) ------------------------------------------
    def _shard_table(self, shard: int) -> dict[str, GateSequence]:
        table = self._shards.get(shard)
        if table is None:
            table = {}
            for name in self._segments_by_shard.get(shard, ()):
                entries = seg.read_segment(self.root, name)
                if entries is None:
                    self._skipped += 1
                    continue
                for entry in entries:
                    # First segment (sorted name order) wins: load order
                    # is deterministic across processes.
                    table.setdefault(
                        seg.key_str(tuple(
                            tuple(p) if isinstance(p, list) else p
                            for p in entry["key"]
                        )),
                        seg.entry_sequence(entry),
                    )
            self._shards[shard] = table
        return table

    def get(self, key: Key) -> GateSequence | None:
        """Exact-key lookup against the open snapshot."""
        kstr = seg.key_str(tuple(key))
        with self._lock:
            return self._shard_table(seg.shard_of(kstr)).get(kstr)

    def get_fallback(self, key: Key) -> GateSequence | None:
        """Stricter-band lookup: any hit satisfies a request at ``key``.

        Probes the same rotation's keys up to
        :data:`DEFAULT_FALLBACK_BANDS` bands below the requested epsilon,
        nearest band first, so the hit with the least surplus precision
        (fewest extra T gates) wins.
        """
        for candidate in stricter_keys(tuple(key), DEFAULT_FALLBACK_BANDS):
            seq = self.get(candidate)
            if seq is not None:
                return seq
        return None

    # -- writes (buffered; atomic publish) --------------------------------
    def put(self, key: Key, sequence: GateSequence) -> None:
        """Buffer one entry for the next :meth:`flush`.

        Invisible to this instance's lookups on purpose: the snapshot
        stays immutable so results never depend on write interleaving.
        """
        key = tuple(key)
        kstr = seg.key_str(key)
        with self._lock:
            shard = seg.shard_of(kstr)
            self._pending.setdefault(shard, {})[kstr] = seg.entry_dict(
                key, sequence
            )

    def flush(self) -> list[str]:
        """Publish pending entries as new segments; returns their names.

        One segment per touched shard, entries sorted for a stable
        content address — two processes flushing identical results
        publish identical files.
        """
        with self._lock:
            pending, self._pending = self._pending, {}
        if not pending:
            return []
        names = []
        for shard in sorted(pending):
            entries = [
                pending[shard][kstr] for kstr in sorted(pending[shard])
            ]
            names.append(seg.write_segment(self.root, shard, entries))
        with self._lock:
            self._published += len(names)
        return names

    def refresh(self) -> None:
        """Re-scan the directory, picking up segments published since open.

        Drops loaded shard tables; pending writes are kept.
        """
        with self._lock:
            self._scan()

    # -- introspection -----------------------------------------------------
    def __len__(self) -> int:
        """Distinct keys in the snapshot (loads every shard)."""
        with self._lock:
            return sum(
                len(self._shard_table(s))
                for s in range(seg.DEFAULT_N_SHARDS)
            )

    def __contains__(self, key: Key) -> bool:
        return self.get(key) is not None

    def stats(self) -> StoreStats:
        with self._lock:
            return StoreStats(
                root=self.root,
                n_segments=sum(
                    len(v) for v in self._segments_by_shard.values()
                ),
                loaded_shards=len(self._shards),
                entries_loaded=sum(len(t) for t in self._shards.values()),
                pending=sum(len(p) for p in self._pending.values()),
                segments_published=self._published,
                skipped_segments=self._skipped,
            )
