"""repro.proc: real OS processes for CORFU nodes.

The loopback deployment puts every node in one interpreter; this
package puts each node in its own process behind
:class:`~repro.net.socket.SocketTransport`:

- :class:`NodeSpec` / :func:`cluster_specs` describe a deployment in
  the same naming scheme :func:`repro.corfu.layout.build_projection`
  uses, so projections and processes always agree on node names.
- :class:`Supervisor` spawns one ``python -m repro.net.server`` per
  spec, parses their READY handshakes, health-pings them, surfaces
  crashes as :class:`~repro.errors.NodeDownError`, and tears the fleet
  down cleanly (graceful shutdown RPC, then SIGTERM, then SIGKILL).
- :class:`RemoteCluster` is the client-side cluster handle: it
  duck-types :class:`~repro.corfu.cluster.CorfuCluster` closely enough
  that :class:`~repro.corfu.client.CorfuClient`, the stream layer, and
  the reconfiguration driver run unchanged over TCP.
- ``repro-cluster`` (:mod:`repro.proc.cli`) launches an N-node
  deployment from the command line.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:  # pragma: no cover - the typed surface
    from repro.proc.remote import RemoteCluster
    from repro.proc.supervisor import NodeSpec, Supervisor, cluster_specs

__all__ = ["NodeSpec", "RemoteCluster", "Supervisor", "cluster_specs"]
__getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.proc.remote": ("RemoteCluster",),
    "repro.proc.supervisor": ("NodeSpec", "Supervisor", "cluster_specs"),
})
