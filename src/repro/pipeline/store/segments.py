"""Segment-file format of the cross-process synthesis store.

A store directory looks like::

    <root>/
      segments/
        seg-03-4f2a9c1d77e0.json  # immutable, content-addressed
        seg-0b-90ee12aa34cd.json

Every segment is an *immutable* JSON file holding a batch of
``key -> GateSequence`` entries for exactly one shard.  Writers never
modify a published file: new results are appended to the store by
publishing a brand-new segment through
:func:`repro.analysis.atomic_write_json` (unique temp + ``os.replace``),
so a reader can never observe a half-written segment and concurrent
writer processes can never corrupt each other.

Segment names are content-addressed — ``seg-<shard>-<digest>.json``
where the digest hashes the canonical entry payload — so two processes
that synthesize the same keys publish the *same file name with the same
bytes* and converge instead of conflicting.

The directory listing is the only index: a reader's snapshot is the
set of segment files :func:`list_segments` finds, so there is no second
record to fall out of step with it.  (Stores written by older versions
also hold an ``index.json``; nothing reads it.)  A damaged or partial
segment (e.g. truncated by a copy gone wrong) is skipped with a
:class:`UserWarning` instead of poisoning the store.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings

from repro.synthesis.sequences import GateSequence

FORMAT_VERSION = "repro-segstore/v1"

#: Fixed shard fan-out: keys hash onto this many buckets, each loaded
#: lazily as one dict.  Every process hashing into a store must agree
#: on it, and the files do not record it, so changing it needs a new
#: :data:`FORMAT_VERSION`.
DEFAULT_N_SHARDS = 16

SEGMENT_DIR = "segments"


def key_str(key: tuple) -> str:
    """Canonical JSON serialization of a cache key.

    Shard hashing, entry dictionaries, and the on-disk ``"key"`` field
    all go through this one function, so a key round-trips disk exactly
    (JSON float repr is shortest-round-trip in Python).
    """
    return json.dumps(list(key), separators=(",", ":"))


def shard_of(kstr: str) -> int:
    digest = hashlib.sha256(kstr.encode()).digest()
    return int.from_bytes(digest[:4], "big") % DEFAULT_N_SHARDS


def segment_name(shard: int, entries: list[dict]) -> str:
    """Content-addressed file name for a segment holding ``entries``."""
    payload = json.dumps(entries, separators=(",", ":"), sort_keys=True)
    digest = hashlib.sha256(payload.encode()).hexdigest()[:12]
    return f"seg-{shard:02d}-{digest}.json"


def shard_of_segment(name: str) -> int | None:
    """Parse the shard index out of a segment file name (None if not one)."""
    if not (name.startswith("seg-") and name.endswith(".json")):
        return None
    parts = name.split("-")
    if len(parts) != 3:
        return None
    try:
        return int(parts[1])
    except ValueError:
        return None


def write_segment(root: str, shard: int, entries: list[dict]) -> str:
    """Publish one immutable segment; returns its file name.

    ``entries`` are ``{"key": [...], "gates": [...], "error": float}``
    dicts, sorted by caller for a stable content address.  Publishing
    is atomic, and identical content maps to an identical name, so a
    concurrent identical publish is a harmless same-bytes replace.
    """
    from repro.analysis.atomic_io import atomic_write_json

    name = segment_name(shard, entries)
    seg_dir = os.path.join(root, SEGMENT_DIR)
    os.makedirs(seg_dir, exist_ok=True)
    payload = {
        "format": FORMAT_VERSION,
        "shard": shard,
        "entries": entries,
    }
    atomic_write_json(os.path.join(seg_dir, name), payload)
    return name


def read_segment(root: str, name: str) -> list[dict] | None:
    """Load one segment's entries; None (with a warning) if unreadable.

    Truncated, corrupt, wrong-format, or vanished segment files are a
    recoverable condition — the entries they held are merely cache
    misses — so they are skipped loudly rather than raised.
    """
    path = os.path.join(root, SEGMENT_DIR, name)
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        if payload.get("format") != FORMAT_VERSION:
            raise ValueError(f"format {payload.get('format')!r}")
        entries = payload["entries"]
        if not isinstance(entries, list):
            raise ValueError("entries must be a list")
        for entry in entries:
            # Touch the required fields so a malformed entry fails the
            # whole segment here, not deep inside a lookup.
            if not isinstance(entry["key"], list):
                raise ValueError("entry key must be a list")
            if not isinstance(entry["gates"], list):
                raise ValueError("entry gates must be a list")
            float(entry["error"])
        return entries
    except FileNotFoundError:
        return None
    except (OSError, ValueError, KeyError, TypeError) as exc:
        warnings.warn(
            f"synthesis store: skipping unreadable segment {path}: {exc}",
            stacklevel=2,
        )
        return None


def entry_dict(key: tuple, seq: GateSequence) -> dict:
    return {
        "key": list(key),
        "gates": list(seq.gates),
        "error": seq.error,
    }


def entry_sequence(entry: dict) -> GateSequence:
    return GateSequence(
        gates=tuple(entry["gates"]), error=float(entry["error"])
    )


def list_segments(root: str) -> list[str]:
    """Segment names currently on disk (sorted; source of truth)."""
    seg_dir = os.path.join(root, SEGMENT_DIR)
    try:
        names = os.listdir(seg_dir)
    except FileNotFoundError:
        return []
    return sorted(n for n in names if shard_of_segment(n) is not None)

