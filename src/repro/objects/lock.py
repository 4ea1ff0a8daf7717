"""TangoLock: an advisory lock service with fencing tokens.

Locks are the canonical coordination-service workload ("locks" appear in
the paper's opening inventory of metadata, section 3). The
implementation demonstrates two Tango patterns:

- **transactional acquire** — read the lock's holder, write the claim;
  optimistic concurrency guarantees a single winner without any lock
  server;
- **fencing tokens** — every successful acquire returns a monotonically
  increasing token (the log offset of the acquiring update), which
  downstream resources can use to reject operations from stale holders,
  exactly as a TangoBK ledger rejects a fenced writer.

There are no leases or heartbeats in-process; a crashed holder's lock is
broken explicitly with :meth:`break_lock` (the fencing token makes this
safe: the dead holder's token is stale forever).
"""

from __future__ import annotations

import json
from typing import Dict, Optional, Tuple

from repro.tango.object import TangoObject
from repro.util.encoding import OpTable


class TangoLock(TangoObject):
    """A named-lock table over the shared log."""

    OPS = OpTable("acquire name holder", "release name holder", "break name")

    def __init__(self, runtime, oid: int, host_view: bool = True) -> None:
        # name -> {"holder": str, "token": int}
        self._locks: Dict[str, dict] = {}
        super().__init__(runtime, oid, host_view=host_view)

    # -- upcalls ------------------------------------------------------------

    def _apply_acquire(self, name: str, holder: str, offset: int) -> None:
        # Unconditional at apply time: the acquiring transaction
        # validated vacancy; the token is the acquire's log offset.
        self._locks[name] = {"holder": holder, "token": offset}

    def _apply_release(self, name: str, holder: str, offset: int) -> None:
        held = self._locks.get(name)
        if held is not None and held["holder"] == holder:
            del self._locks[name]

    def _apply_break(self, name: str, offset: int) -> None:
        self._locks.pop(name, None)

    def get_checkpoint(self) -> bytes:
        return json.dumps(self._locks).encode("utf-8")

    def load_checkpoint(self, state: bytes) -> None:
        self._locks = json.loads(state.decode("utf-8"))

    # -- interface ------------------------------------------------------------

    def try_acquire(self, name: str, holder: str) -> Optional[int]:
        """Acquire *name* for *holder*; returns a fencing token or None.

        Concurrent acquirers conflict on the lock's key and exactly one
        commits. Re-acquiring a lock already held by *holder* returns
        the existing token (idempotent).
        """

        def body() -> Optional[bool]:
            self._query(key=name.encode("utf-8"))
            held = self._locks.get(name)
            if held is not None:
                return False if held["holder"] != holder else None
            self._op("acquire", name, holder, key=name.encode("utf-8"))
            return True

        outcome = self._runtime.run_transaction(body)
        if outcome is False:
            return None
        self._query(key=name.encode("utf-8"))
        held = self._locks.get(name)
        if held is None or held["holder"] != holder:
            return None  # broken/stolen between commit and read-back
        return held["token"]

    def release(self, name: str, holder: str) -> None:
        """Release *name* if held by *holder* (otherwise a no-op)."""
        self._op("release", name, holder, key=name.encode("utf-8"))

    def break_lock(self, name: str) -> None:
        """Forcibly clear a lock (crashed-holder recovery).

        Safe because fencing tokens are monotone: the next acquirer's
        token exceeds the dead holder's, so fenced resources reject the
        old holder regardless.
        """
        self._op("break", name, key=name.encode("utf-8"))

    def holder_of(self, name: str) -> Optional[Tuple[str, int]]:
        """(holder, fencing token) for *name*, or None if free."""
        self._query(key=name.encode("utf-8"))
        held = self._locks.get(name)
        if held is None:
            return None
        return held["holder"], held["token"]

    def held_locks(self) -> Tuple[str, ...]:
        self._query()
        return tuple(sorted(self._locks))
