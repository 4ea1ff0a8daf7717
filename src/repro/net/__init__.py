"""repro.net: the transport boundary between clients and cluster nodes.

The paper's client owns *all* retry logic (§2.2: append races, sealed
epochs, dead nodes), which only matters if there is a real message
boundary for things to go wrong on. This package provides that
boundary: every client↔node interaction (sequencer increment / query /
seal, storage read / write / trim / seal via chain replication) is an
RPC mediated by a :class:`Transport`.

Three transports ship:

- :class:`LoopbackTransport` (the default) delivers every RPC as a
  direct in-process method call — today's semantics, with per-endpoint
  counters but no faults.
- :class:`FaultyTransport` is a seedable fault injector: latency,
  request/response drops (surfacing as :class:`~repro.errors.RpcTimeout`),
  duplicate delivery, reordering via delayed delivery, and node-pair
  partitions. It is what the network-chaos tests drive.
- :class:`SocketTransport` speaks length-prefixed JSON frames over TCP
  to :mod:`repro.net.server` processes — the real-wire deployment
  driven by :mod:`repro.proc`. Wire format lives in
  :mod:`repro.net.wire`.

Every transport owns a :class:`Clock` (:mod:`repro.net.clock`):
logical ticks for the deterministic in-process transports, monotonic
wall time for sockets.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:  # pragma: no cover - the typed surface
    from repro.net.clock import Clock, LogicalClock, MonotonicClock
    from repro.net.faulty import FaultyTransport
    from repro.net.socket import SocketTransport
    from repro.net.transport import EndpointStats, LoopbackTransport, RpcProxy, Transport

__all__ = [
    "Clock", "EndpointStats", "FaultyTransport", "LogicalClock", "LoopbackTransport",
    "MonotonicClock", "RpcProxy", "SocketTransport", "Transport",
]
__getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.net.clock": ("Clock", "LogicalClock", "MonotonicClock"),
    "repro.net.faulty": ("FaultyTransport",),
    "repro.net.socket": ("SocketTransport",),
    "repro.net.transport": ("EndpointStats", "LoopbackTransport", "RpcProxy", "Transport"),
})
