"""TangoQueue: a replicated FIFO queue.

The producer-consumer pattern from section 4.1: "with remote-write
transactions, the producer can add new items to the queue without having
to locally host it and see all its updates" — construct the producer's
instance with ``host_view=False`` and only consumers pay playback cost.

Dequeues are transactional read-modify-writes on the whole queue, so
concurrent consumers hand each element to exactly one caller.
"""

from __future__ import annotations

import json
from typing import Any, List, Optional, Tuple

from repro.tango.object import TangoObject
from repro.util.encoding import OpTable


class TangoQueue(TangoObject):
    """A persistent, highly available FIFO queue."""

    OPS = OpTable("enqueue v", "dequeue")

    def __init__(self, runtime, oid: int, host_view: bool = True) -> None:
        self._items: List[Any] = []
        super().__init__(runtime, oid, host_view=host_view)

    def _apply_enqueue(self, v: Any, offset: int) -> None:
        self._items.append(v)

    def _apply_dequeue(self, offset: int) -> None:
        if self._items:
            self._items.pop(0)

    def get_checkpoint(self) -> bytes:
        return json.dumps(self._items).encode("utf-8")

    def load_checkpoint(self, state: bytes) -> None:
        self._items = json.loads(state.decode("utf-8"))

    # -- mutators ---------------------------------------------------------------

    def enqueue(self, value: Any) -> None:
        """Append to the tail (works without a local view: remote write)."""
        self._op("enqueue", value)

    # -- accessors ---------------------------------------------------------------

    def peek(self) -> Optional[Any]:
        self._query()
        return self._items[0] if self._items else None

    def size(self) -> int:
        self._query()
        return len(self._items)

    def to_list(self) -> Tuple[Any, ...]:
        self._query()
        return tuple(self._items)

    # -- transactional dequeue ----------------------------------------------------

    def dequeue(self) -> Optional[Any]:
        """Atomically remove and return the head (None when empty)."""

        def attempt() -> Optional[Any]:
            self._query()
            if not self._items:
                return None
            head = self._items[0]
            self._op("dequeue")
            return head

        return self._runtime.run_transaction(attempt)
