"""repro.store — segmented durable log storage with background compaction.

Layout:

- :mod:`repro.store.segment` — segment files (flat-compatible frames,
  per-segment index, footer checksum), crash recovery, flat-file reader;
- :mod:`repro.store.compactor` — garbage-ratio policy plus an inline or
  threaded compactor that rewrites still-live entries past the trim
  point into fresh segments;
- :mod:`repro.store.flash` — :class:`SegmentedFlashUnit`, the durable
  unit built on the above, and :func:`open_node_unit`, which decides a
  storage node's on-disk layout.

See ``docs/STORAGE.md`` for the on-disk formats and knobs.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:  # pragma: no cover - the typed surface
    from repro.store.compactor import CompactionPolicy, Compactor
    from repro.store.flash import SegmentedFlashUnit, open_node_unit
    from repro.store.segment import (
        DEFAULT_SEGMENT_BYTES,
        FRAME,
        OP_SEAL,
        OP_TRIM,
        OP_TRIM_PREFIX,
        OP_WRITE,
        SegmentInfo,
        SegmentStore,
        pack_frame,
        parse_frames,
        read_flat_log,
    )

__all__ = [
    "CompactionPolicy", "Compactor", "DEFAULT_SEGMENT_BYTES", "FRAME", "OP_SEAL",
    "OP_TRIM", "OP_TRIM_PREFIX", "OP_WRITE", "SegmentInfo", "SegmentStore",
    "SegmentedFlashUnit", "open_node_unit", "pack_frame", "parse_frames",
    "read_flat_log",
]
__getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.store.compactor": ("CompactionPolicy", "Compactor"),
    "repro.store.flash": ("SegmentedFlashUnit", "open_node_unit"),
    "repro.store.segment": (
        "DEFAULT_SEGMENT_BYTES", "FRAME", "OP_SEAL", "OP_TRIM", "OP_TRIM_PREFIX",
        "OP_WRITE", "SegmentInfo", "SegmentStore", "pack_frame", "parse_frames",
        "read_flat_log",
    ),
})
