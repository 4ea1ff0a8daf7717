"""The Tango object directory (paper section 3.2, "Naming").

"To assign unique OIDs to each object, Tango maintains a directory from
human-readable strings ... to unique integers. This directory is itself
a Tango object with a hard-coded OID. Tango also uses the directory for
safely implementing the forget garbage collection interface in the
presence of multiple objects ... The directory tracks the forget offset
for each object (below which its entries can be reclaimed), and Tango
only trims the shared log below the minimum such offset across all
objects."

OID allocation runs as a transaction serialized on the ``__next_oid``
pseudo-key, so two clients concurrently creating names can never be
handed the same OID: the second committer's read of ``__next_oid`` is
stale and its transaction aborts and retries.
"""

from __future__ import annotations

import json
from typing import Dict, Optional, Tuple, Type

from repro.errors import UnknownObjectError
from repro.tango.object import TangoObject
from repro.tango.runtime import TangoRuntime
from repro.util.encoding import OpTable

#: The directory's hard-coded object id.
DIRECTORY_OID = 0

#: First OID handed out to applications (0 is the directory itself).
FIRST_APP_OID = 1

_NEXT_OID_KEY = b"__next_oid"


class TangoDirectory(TangoObject):
    """Name -> OID map plus per-object forget offsets."""

    #: ``forget``'s ``offset`` is the forget offset (its handler calls it
    #: ``forget_at``: every handler's last argument is the op's own offset).
    OPS = OpTable("create name oid", "forget oid offset", "remove name")

    def __init__(self, runtime: TangoRuntime, host_view: bool = True) -> None:
        self._names: Dict[str, int] = {}
        self._forget_offsets: Dict[int, int] = {}
        self._next_oid = FIRST_APP_OID
        super().__init__(runtime, DIRECTORY_OID, host_view=host_view)

    # -- upcalls ---------------------------------------------------------------

    def _apply_create(self, name: str, oid: int, offset: int) -> None:
        # First creator wins; a lost race is a no-op (the loser's
        # transaction aborted anyway under __next_oid versioning).
        if name not in self._names:
            self._names[name] = oid
        self._next_oid = max(self._next_oid, oid + 1)

    def _apply_forget(self, oid: int, forget_at: int, offset: int) -> None:
        if forget_at > self._forget_offsets.get(oid, -1):
            self._forget_offsets[oid] = forget_at

    def _apply_remove(self, name: str, offset: int) -> None:
        self._names.pop(name, None)

    def get_checkpoint(self) -> bytes:
        return json.dumps(
            {
                "names": self._names,
                "forget": {str(k): v for k, v in self._forget_offsets.items()},
                "next_oid": self._next_oid,
            }
        ).encode("utf-8")

    def load_checkpoint(self, state: bytes) -> None:
        data = json.loads(state.decode("utf-8"))
        self._names = dict(data["names"])
        self._forget_offsets = {int(k): v for k, v in data["forget"].items()}
        self._next_oid = data["next_oid"]

    # -- interface ---------------------------------------------------------------

    def lookup(self, name: str) -> Optional[int]:
        """Linearizable name lookup; None if absent."""
        self._query(key=name.encode("utf-8"))
        return self._names.get(name)

    def get_or_create(self, name: str) -> int:
        """Return the OID for *name*, allocating one if needed.

        Safe under concurrent creators: allocation serializes on the
        ``__next_oid`` key via a transaction.
        """
        existing = self.lookup(name)
        if existing is not None:
            return existing

        def attempt() -> int:
            self._query(key=name.encode("utf-8"))
            found = self._names.get(name)
            if found is not None:
                return found
            self._query(key=_NEXT_OID_KEY)
            oid = self._next_oid
            self._op("create", name, oid, key=_NEXT_OID_KEY)
            return oid

        return self._runtime.run_transaction(attempt)

    def remove(self, name: str) -> None:
        """Unbind a name (the OID and its stream remain in the log)."""
        self._op("remove", name, key=name.encode("utf-8"))

    def names(self) -> Tuple[str, ...]:
        """All currently bound names (linearizable)."""
        self._query()
        return tuple(sorted(self._names))

    def open(self, cls: Type[TangoObject], name: str, **kwargs) -> TangoObject:
        """Instantiate (and register) *cls* under the OID bound to *name*.

        Opening a name this runtime already hosts returns the existing
        view (a runtime holds at most one view per object); the extra
        keyword arguments are ignored in that case.
        """
        oid = self.get_or_create(name)
        existing = self._runtime.get_object(oid)
        if existing is not None:
            if not isinstance(existing, cls):
                raise UnknownObjectError(
                    f"name {name!r} (oid {oid}) is already hosted as "
                    f"{type(existing).__name__}, not {cls.__name__}"
                )
            return existing
        return cls(self._runtime, oid, **kwargs)

    # -- garbage collection ---------------------------------------------------------

    def forget(self, oid: int, offset: int) -> None:
        """Record that *oid* no longer needs log entries below *offset*.

        Typically called with the ``covers_offset`` of a checkpoint the
        object just took: history below the checkpoint becomes
        unreachable for rollback and reclaimable by :meth:`gc`.
        """
        self._op("forget", oid, offset, key=f"__forget_{oid}".encode("utf-8"))

    def forget_offset(self, oid: int) -> int:
        """The registered forget offset for *oid* (-1 if none)."""
        self._query(key=f"__forget_{oid}".encode("utf-8"))
        return self._forget_offsets.get(oid, -1)

    def gc(self) -> int:
        """Trim the log below the minimum forget offset across all objects.

        Returns the trim point (0 means nothing could be reclaimed). An
        object that has never called forget pins the log, as in the
        paper: the trim point is the min across *all* live objects.
        """
        self._query()
        live_oids = set(self._names.values()) | {DIRECTORY_OID}
        offsets = [self._forget_offsets.get(oid, -1) for oid in live_oids]
        trim_point = min(offsets) if offsets else -1
        if trim_point <= 0:
            return 0
        self._runtime.streams.corfu.trim_prefix(trim_point)
        return trim_point
