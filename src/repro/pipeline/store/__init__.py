"""Cross-process synthesis store: the shared L2 behind the LRU cache.

The paper's caching argument is that Clifford+T synthesis results are
worth keeping far beyond one circuit.  This package keeps them beyond
one *process*: a content-addressed on-disk store of
:class:`~repro.synthesis.GateSequence` results built from immutable,
atomically-published segment files, indexed only by their directory
listing (:mod:`repro.pipeline.store.segments`), served through
:class:`DiskSynthesisStore` (:mod:`repro.pipeline.store.disk`) with
lazy sharded loading, snapshot-read determinism, and epsilon-band
fallback (a request at ``eps=1e-3`` reuses a cataloged ``1e-4`` word).

Wire it under the in-memory tier with
``SynthesisCache(store=DiskSynthesisStore(path))`` — or just pass
``cache_dir=`` to :func:`repro.pipeline.compile_batch`.  The offline
catalog precompiler that ships warm segments lives in
:mod:`repro.pipeline.warm`.
"""

from repro.pipeline.store.disk import (
    DEFAULT_FALLBACK_BANDS,
    DiskSynthesisStore,
    StoreStats,
)
from repro.pipeline.store.segments import (
    DEFAULT_N_SHARDS,
    FORMAT_VERSION,
)

__all__ = [
    "DEFAULT_FALLBACK_BANDS",
    "DEFAULT_N_SHARDS",
    "DiskSynthesisStore",
    "FORMAT_VERSION",
    "StoreStats",
]
