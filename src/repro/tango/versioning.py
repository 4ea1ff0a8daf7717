"""Version tracking for optimistic concurrency control.

Paper section 3.2, "Versioning": the version of an object is "simply the
last offset in the shared log that modified the object". A single
version per object "can result in an unnecessarily high abort rate for
large data structures"; objects may therefore pass opaque *key*
parameters to the helper calls, "specifying which disjoint sub-region of
the data structure is being accessed and thus allowing for fine-grained
versioning within the object. Internally, Tango then tracks the latest
version of each key within an object."

Consistency rules between the two granularities:

- a **keyed write** bumps the key version and the whole-object version,
  so coarse readers conflict with it;
- an **unkeyed write** may touch any part of the object, so it must
  invalidate *every* keyed read; we track the last unkeyed modification
  per object separately for this.

Memory-bounded mode adds *eviction below a horizon*: once the log prefix
below an offset is trimmed (checkpoint-and-forget), keyed entries whose
version sits below that offset can be dropped. Dropped keys leave a
compact digest in an :class:`EvictedKeySet` plus a per-object *floor*
(horizon - 1): a later lookup of an evicted key conservatively reports
the floor — an upper bound on its true version — so a transaction that
read the key *before* the horizon may abort spuriously, but a stale read
can never slip through. Per-object and unkeyed versions are one integer
each and are never evicted.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Tuple

from repro.tango.records import NO_VERSION

_DIGEST_SIZE = 8


class EvictedKeySet:
    """A compact, exact membership set of evicted version keys.

    Keys are stored as sorted fixed-width blake2b digests in one bytes
    blob — 8 bytes per distinct key, no per-entry object overhead, and a
    deterministic serialization (:meth:`to_bytes`) that checkpoints can
    carry so reloaded views inherit the same conservative floors.
    """

    __slots__ = ("_blob",)

    def __init__(self, blob: bytes = b"") -> None:
        if len(blob) % _DIGEST_SIZE:
            raise ValueError("evicted-key blob length not a digest multiple")
        self._blob = blob

    @staticmethod
    def _digest(key: bytes) -> bytes:
        return hashlib.blake2b(key, digest_size=_DIGEST_SIZE).digest()

    def add_many(self, keys: List[bytes]) -> None:
        if not keys:
            return
        records = {
            self._blob[i : i + _DIGEST_SIZE]
            for i in range(0, len(self._blob), _DIGEST_SIZE)
        }
        records.update(self._digest(k) for k in keys)
        self._blob = b"".join(sorted(records))

    def merge_bytes(self, blob: bytes) -> None:
        if len(blob) % _DIGEST_SIZE:
            raise ValueError("evicted-key blob length not a digest multiple")
        records = {
            self._blob[i : i + _DIGEST_SIZE]
            for i in range(0, len(self._blob), _DIGEST_SIZE)
        }
        records.update(
            blob[i : i + _DIGEST_SIZE] for i in range(0, len(blob), _DIGEST_SIZE)
        )
        self._blob = b"".join(sorted(records))

    def __contains__(self, key: bytes) -> bool:
        digest = self._digest(key)
        lo, hi = 0, len(self._blob) // _DIGEST_SIZE
        while lo < hi:
            mid = (lo + hi) // 2
            rec = self._blob[mid * _DIGEST_SIZE : (mid + 1) * _DIGEST_SIZE]
            if rec < digest:
                lo = mid + 1
            elif rec > digest:
                hi = mid
            else:
                return True
        return False

    def __len__(self) -> int:
        return len(self._blob) // _DIGEST_SIZE

    def to_bytes(self) -> bytes:
        return self._blob

    @classmethod
    def from_bytes(cls, blob: bytes) -> "EvictedKeySet":
        return cls(blob)


class VersionTable:
    """Per-object and per-(object, key) last-modified offsets."""

    def __init__(self) -> None:
        self._object_versions: Dict[int, int] = {}
        self._unkeyed_versions: Dict[int, int] = {}
        self._key_versions: Dict[Tuple[int, bytes], int] = {}
        # Memory-bounded mode: per-object eviction floor and the digest
        # set of keys whose exact versions were dropped below it.
        self._floors: Dict[int, int] = {}
        self._evicted: Dict[int, EvictedKeySet] = {}

    def bump(self, oid: int, offset: int, key: Optional[bytes] = None) -> None:
        """Record that *offset* modified *oid* (and *key* within it)."""
        if offset > self._object_versions.get(oid, NO_VERSION):
            self._object_versions[oid] = offset
        if key is None:
            if offset > self._unkeyed_versions.get(oid, NO_VERSION):
                self._unkeyed_versions[oid] = offset
        else:
            k = (oid, key)
            if offset > self._key_versions.get(k, NO_VERSION):
                self._key_versions[k] = offset

    def get(self, oid: int, key: Optional[bytes] = None) -> int:
        """Current version of *oid* (or of *key* within *oid*).

        The keyed version folds in unkeyed modifications, since those
        may have touched the key's sub-region.
        """
        if key is None:
            return self._object_versions.get(oid, NO_VERSION)
        keyed = self._key_versions.get((oid, key))
        if keyed is None:
            keyed = NO_VERSION
            evicted = self._evicted.get(oid)
            if evicted is not None and key in evicted:
                # The exact version was evicted below the floor; report
                # the floor — an upper bound, so conflict checks err
                # toward aborting, never toward missing a conflict.
                keyed = self._floors.get(oid, NO_VERSION)
        return max(keyed, self._unkeyed_versions.get(oid, NO_VERSION))

    def is_stale(self, oid: int, key: Optional[bytes], read_version: int) -> bool:
        """True if the location was modified after *read_version*."""
        return self.get(oid, key) > read_version

    def snapshot_keys(self, oid: int) -> Tuple[Tuple[bytes, int], ...]:
        """All key versions for *oid* (for checkpoint records)."""
        return tuple(
            (key, version)
            for (obj, key), version in sorted(self._key_versions.items())
            if obj == oid
        )

    def snapshot_unkeyed(self, oid: int) -> int:
        """Last unkeyed modification offset for *oid*."""
        return self._unkeyed_versions.get(oid, NO_VERSION)

    def load_checkpoint(
        self,
        oid: int,
        object_version: int,
        key_versions: Tuple[Tuple[bytes, int], ...],
        unkeyed_version: int = NO_VERSION,
        version_floor: int = NO_VERSION,
        evicted_filter: bytes = b"",
    ) -> None:
        """Fold version state recovered from a checkpoint record in.

        All pieces are carried exactly in the checkpoint so that a
        reloaded view makes the same commit/abort decisions as a view
        built from the full history; when the writer's table had evicted
        keys, the floor and filter make the reloaded view exactly as
        conservative as the writer was. Versions fold in as maxima, so
        newer ones a replay saw past the checkpoint's cover stay.
        """
        if object_version > self._object_versions.get(oid, NO_VERSION):
            self._object_versions[oid] = object_version
        if unkeyed_version > self._unkeyed_versions.get(oid, NO_VERSION):
            self._unkeyed_versions[oid] = unkeyed_version
        for key, version in key_versions:
            if version > self._key_versions.get((oid, key), NO_VERSION):
                self._key_versions[(oid, key)] = version
        if evicted_filter:
            self._evicted.setdefault(oid, EvictedKeySet()).merge_bytes(
                evicted_filter
            )
            self._floors[oid] = max(
                self._floors.get(oid, NO_VERSION), version_floor
            )

    # -- memory-bounded mode ---------------------------------------------------

    def evict_below(self, horizon: int) -> int:
        """Drop keyed entries versioned below *horizon*; returns the count.

        Safe after the log prefix below *horizon* is trimmed: dropped
        keys answer lookups with the per-object floor (``horizon - 1``)
        via the evicted-key set, which over-approximates their true
        version. Object/unkeyed versions (one int each) are kept.
        """
        if horizon <= 0:
            return 0
        doomed: Dict[int, List[bytes]] = {}
        for (oid, key), version in self._key_versions.items():
            if version < horizon:
                doomed.setdefault(oid, []).append(key)
        count = 0
        for oid, keys in doomed.items():
            for key in keys:
                del self._key_versions[(oid, key)]
            count += len(keys)
            self._evicted.setdefault(oid, EvictedKeySet()).add_many(keys)
            self._floors[oid] = max(self._floors.get(oid, NO_VERSION), horizon - 1)
        return count

    def eviction_snapshot(self, oid: int) -> Tuple[int, bytes]:
        """(floor, serialized evicted-key set) for checkpoint records."""
        evicted = self._evicted.get(oid)
        if evicted is None or not len(evicted):
            return NO_VERSION, b""
        return self._floors.get(oid, NO_VERSION), evicted.to_bytes()

    def resident_stats(self) -> Dict[str, int]:
        """Entry counts for memory reporting."""
        return {
            "objects": len(self._object_versions),
            "keyed_entries": len(self._key_versions),
            "evicted_keys": sum(len(e) for e in self._evicted.values()),
            "evicted_bytes": sum(
                len(e.to_bytes()) for e in self._evicted.values()
            ),
        }

    def drop_object(self, oid: int) -> None:
        """Forget all version state for *oid* (object deregistration)."""
        self._object_versions.pop(oid, None)
        self._unkeyed_versions.pop(oid, None)
        self._floors.pop(oid, None)
        self._evicted.pop(oid, None)
        for k in [k for k in self._key_versions if k[0] == oid]:
            del self._key_versions[k]
