"""CORFU: a shared log over a cluster of flash storage units.

This subpackage implements the shared-log substrate that Tango runs on
(paper section 2.2), extended with the streaming support of section 5:

- :mod:`repro.corfu.entry` — log entries and per-stream backpointer
  headers (relative and absolute formats).
- :mod:`repro.corfu.storage` — flash storage units exposing a 64-bit
  write-once address space with trim, seal, and crash/recover.
- :mod:`repro.corfu.sequencer` — the tail counter, extended to hand out
  per-stream backpointers.
- :mod:`repro.corfu.layout` — projections: replica sets, the
  deterministic offset-to-page mapping, and epochs.
- :mod:`repro.corfu.replication` — client-driven chain replication.
- :mod:`repro.corfu.client` — the client library: append / read / check
  / trim / fill.
- :mod:`repro.corfu.cluster` — wiring for an in-process deployment, with
  fault injection used by tests and by the reconfiguration machinery.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:  # pragma: no cover - the typed surface
    from repro.corfu.client import CorfuClient
    from repro.corfu.cluster import CorfuCluster
    from repro.corfu.entry import NO_BACKPOINTER, LogEntry, StreamHeader
    from repro.corfu.layout import Projection, ReplicaSet
    from repro.corfu.sequencer import Sequencer
    from repro.corfu.storage import FlashUnit

__all__ = [
    "LogEntry", "StreamHeader", "NO_BACKPOINTER", "FlashUnit", "Sequencer",
    "Projection", "ReplicaSet", "CorfuClient", "CorfuCluster",
]
__getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.corfu.client": ("CorfuClient",),
    "repro.corfu.cluster": ("CorfuCluster",),
    "repro.corfu.entry": ("LogEntry", "StreamHeader", "NO_BACKPOINTER"),
    "repro.corfu.layout": ("Projection", "ReplicaSet"),
    "repro.corfu.sequencer": ("Sequencer",),
    "repro.corfu.storage": ("FlashUnit",),
})
