"""TangoList: a replicated list.

Used in the paper's Figure 4 example (a single-writer list built with a
transaction over a TangoMap and a TangoList) and in the job scheduler of
section 4 ("a TangoList storing free compute nodes").

Mutators are defined so that their apply upcalls are total under any
interleaving: positional inserts clamp to the current bounds, and
removals of absent values are no-ops. Applications needing
read-modify-write semantics (e.g. "remove this exact element") wrap the
operations in a transaction.
"""

from __future__ import annotations

import json
from typing import Any, List, Optional, Tuple

from repro.tango.object import TangoObject
from repro.util.encoding import OpTable


class TangoList(TangoObject):
    """A persistent, highly available list of JSON values."""

    OPS = OpTable("append v", "insert i v", "remove_value v", "pop_head", "clear")

    def __init__(self, runtime, oid: int, host_view: bool = True) -> None:
        self._items: List[Any] = []
        super().__init__(runtime, oid, host_view=host_view)

    def _apply_append(self, v: Any, offset: int) -> None:
        self._items.append(v)

    def _apply_insert(self, i: int, v: Any, offset: int) -> None:
        self._items.insert(max(0, min(i, len(self._items))), v)

    def _apply_remove_value(self, v: Any, offset: int) -> None:
        try:
            self._items.remove(v)
        except ValueError:
            pass  # already gone; removal is idempotent by value

    def _apply_pop_head(self, offset: int) -> None:
        if self._items:
            self._items.pop(0)

    def _apply_clear(self, offset: int) -> None:
        self._items.clear()

    def get_checkpoint(self) -> bytes:
        return json.dumps(self._items).encode("utf-8")

    def load_checkpoint(self, state: bytes) -> None:
        self._items = json.loads(state.decode("utf-8"))

    # -- mutators ---------------------------------------------------------------

    def append(self, value: Any) -> None:
        self._op("append", value)

    def insert(self, index: int, value: Any) -> None:
        self._op("insert", index, value)

    def remove_value(self, value: Any) -> None:
        """Remove the first occurrence of *value* (no-op if absent)."""
        self._op("remove_value", value)

    def clear(self) -> None:
        self._op("clear")

    # -- accessors ---------------------------------------------------------------

    def get(self, index: int) -> Any:
        self._query()
        return self._items[index]

    def head(self) -> Optional[Any]:
        self._query()
        return self._items[0] if self._items else None

    def contains(self, value: Any) -> bool:
        self._query()
        return value in self._items

    def size(self) -> int:
        self._query()
        return len(self._items)

    def to_list(self) -> Tuple[Any, ...]:
        self._query()
        return tuple(self._items)

    # -- transactional patterns ------------------------------------------------------

    def take_head(self) -> Optional[Any]:
        """Atomically remove and return the head (None when empty).

        Concurrent takers conflict and retry, so each element is handed
        to exactly one caller — the free-list pop of the job scheduler.
        """

        def attempt() -> Optional[Any]:
            self._query()
            if not self._items:
                return None
            head = self._items[0]
            self._op("pop_head")
            return head

        return self._runtime.run_transaction(attempt)
