"""TangoCounter: a replicated integer counter.

Used by the paper's job-scheduler example ("a TangoCounter for new job
IDs", section 4). Increments are commutative updates; ``next_id`` shows
the transactional read-modify-write pattern for allocation.
"""

from __future__ import annotations

import json

from repro.tango.object import TangoObject
from repro.util.encoding import OpTable


class TangoCounter(TangoObject):
    """A persistent, highly available counter."""

    OPS = OpTable("add n", "set n")

    def __init__(self, runtime, oid: int, host_view: bool = True) -> None:
        self._value = 0
        super().__init__(runtime, oid, host_view=host_view)

    def _apply_add(self, n: int, offset: int) -> None:
        self._value += n

    def _apply_set(self, n: int, offset: int) -> None:
        self._value = n

    def get_checkpoint(self) -> bytes:
        return json.dumps(self._value).encode("utf-8")

    def load_checkpoint(self, state: bytes) -> None:
        self._value = json.loads(state.decode("utf-8"))

    # -- mutators --------------------------------------------------------------

    def increment(self, n: int = 1) -> None:
        """Add *n* (commutative; safe without a transaction)."""
        self._op("add", n)

    def decrement(self, n: int = 1) -> None:
        self.increment(-n)

    def set(self, n: int) -> None:
        """Overwrite the counter."""
        self._op("set", n)

    # -- accessors --------------------------------------------------------------

    def value(self) -> int:
        """Linearizable read of the counter."""
        self._query()
        return self._value

    # -- transactional pattern -----------------------------------------------------

    def next_id(self) -> int:
        """Allocate a unique id: transactional read-increment.

        Two clients calling this concurrently conflict (one retries), so
        ids are never handed out twice.
        """

        def attempt() -> int:
            self._query()
            current = self._value
            self._op("set", current + 1)
            return current

        return self._runtime.run_transaction(attempt)
