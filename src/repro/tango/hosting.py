"""Dynamic hosting registry: who hosts which objects.

Paper section 4.1, on deciding when a transaction needs a decision
record: "In our current implementation, we require developers to mark
objects as requiring decision records ... This solution is simple but
conservative and static; a more dynamic scheme might involve tracking
the set of objects hosted by each client."

:class:`HostingRegistry` is that dynamic scheme — itself a Tango object
(of course), mapping client names to the sets of object ids they host.
A generating client consults it at EndTX: a decision record is needed
exactly when some *other* client hosts one of the transaction's
write-set objects without hosting its entire read set.

The registry view used for the check may be slightly stale (a client
may have registered a new view moments ago). Staleness is safe: a
missed decision record degrades to the runtime's reconstruction
fallback, which is correct, just slower. Attach a registry to a runtime
with :meth:`TangoRuntime.use_hosting_registry
<repro.tango.runtime.TangoRuntime.use_hosting_registry>`.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.tango.object import TangoObject
from repro.util.encoding import OpTable


class HostingRegistry(TangoObject):
    """client name -> set of hosted object ids."""

    OPS = OpTable("announce client oids", "retract client oids", "leave client")

    def __init__(self, runtime, oid: int, host_view: bool = True) -> None:
        self._hosts: Dict[str, Set[int]] = {}
        super().__init__(runtime, oid, host_view=host_view)

    # -- upcalls -----------------------------------------------------------

    def _apply_announce(self, client: str, oids: List[int], offset: int) -> None:
        self._hosts.setdefault(client, set()).update(oids)

    def _apply_retract(self, client: str, oids: List[int], offset: int) -> None:
        hosted = self._hosts.get(client)
        if hosted is not None:
            hosted.difference_update(oids)
            if not hosted:
                del self._hosts[client]

    def _apply_leave(self, client: str, offset: int) -> None:
        self._hosts.pop(client, None)

    def get_checkpoint(self) -> bytes:
        return json.dumps(
            {client: sorted(oids) for client, oids in self._hosts.items()}
        ).encode("utf-8")

    def load_checkpoint(self, state: bytes) -> None:
        raw = json.loads(state.decode("utf-8"))
        self._hosts = {client: set(oids) for client, oids in raw.items()}

    # -- mutators ------------------------------------------------------------

    def announce(self, client: str, oids: Iterable[int]) -> None:
        """Record that *client* hosts views of *oids*."""
        self._op("announce", client, sorted(oids), key=client.encode("utf-8"))

    def retract(self, client: str, oids: Iterable[int]) -> None:
        """Record that *client* dropped views of *oids*."""
        self._op("retract", client, sorted(oids), key=client.encode("utf-8"))

    def leave(self, client: str) -> None:
        """Remove a departed client entirely."""
        self._op("leave", client, key=client.encode("utf-8"))

    # -- accessors -------------------------------------------------------------

    def hosted_by(self, client: str) -> Tuple[int, ...]:
        self._query(key=client.encode("utf-8"))
        return tuple(sorted(self._hosts.get(client, ())))

    def clients(self) -> Tuple[str, ...]:
        self._query()
        return tuple(sorted(self._hosts))

    def needs_decision(
        self,
        read_oids: Sequence[int],
        write_oids: Sequence[int],
        generating_client: str,
    ) -> bool:
        """True if some consumer cannot validate this transaction.

        "a client executing a transaction must insert a decision record
        ... if there's some other client in the system that hosts an
        object in its write set but not all the objects in its read
        set" (section 4.1). Uses the local view without forcing a sync;
        see the module docstring on why staleness is safe.
        """
        reads = set(read_oids)
        # Deliberately unsynced: called from EndTX under the play lock,
        # and staleness only degrades to the reconstruction fallback
        # (see module docstring).
        for client, hosted in self._hosts.items():  # tangolint: disable=TL002
            if client == generating_client:
                continue
            if any(oid in hosted for oid in write_oids) and not reads <= hosted:
                return True
        return False
