"""The Tango runtime: replicated data structures over the shared log.

The runtime provides the paper's two helper calls (section 3.1):

- ``update_helper`` — "accepts an opaque buffer from the object and
  appends it to the shared log";
- ``query_helper`` — "reads new entries from the shared log and provides
  them to the object via an apply upcall";

plus transactions (``begin_tx``/``end_tx``, section 3.2/4.1),
checkpoints and ``forget``-driven garbage collection (section 3.1), and
the name directory (section 3.2, "Naming").
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:  # pragma: no cover - the typed surface
    from repro.tango.object import TangoObject
    from repro.tango.records import (
        CheckpointRecord,
        CommitRecord,
        DecisionRecord,
        UpdateRecord,
        decode_records,
        encode_records,
    )
    from repro.tango.runtime import TangoRuntime
    from repro.tango.versioning import NO_VERSION, VersionTable

__all__ = [
    "TangoRuntime", "TangoObject", "UpdateRecord", "CommitRecord", "DecisionRecord",
    "CheckpointRecord", "encode_records", "decode_records", "VersionTable",
    "NO_VERSION",
]
__getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.tango.object": ("TangoObject",),
    "repro.tango.records": (
        "UpdateRecord", "CommitRecord", "DecisionRecord", "CheckpointRecord",
        "encode_records", "decode_records",
    ),
    "repro.tango.runtime": ("TangoRuntime",),
    "repro.tango.versioning": ("VersionTable", "NO_VERSION"),
})
