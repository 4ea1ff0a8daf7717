"""TangoTreeSet: a replicated sorted set.

The paper's motivating complaint about one-size-fits-all coordination
services (section 2) is precisely that they cannot efficiently answer
ordered queries ("extracting the oldest/newest inserted name"); a
TreeSet view makes those queries local and O(log n) while the shared log
still provides consistency and durability.

Elements must be mutually comparable JSON scalars (all strings or all
numbers). Fine-grained versioning uses the element itself as the key,
so transactions adding/removing different elements do not conflict.
"""

from __future__ import annotations

import bisect
import json
from typing import Any, List, Optional, Tuple

from repro.tango.object import TangoObject
from repro.util.encoding import OpTable


def _version_key(value: Any) -> bytes:
    # The element's JSON text: version keys are in the log, so they keep
    # the format every earlier writer used.
    return json.dumps(value, sort_keys=True).encode("utf-8")


class TangoTreeSet(TangoObject):
    """A persistent, highly available sorted set."""

    OPS = OpTable("add v", "discard v", "clear")

    def __init__(self, runtime, oid: int, host_view: bool = True) -> None:
        self._items: List[Any] = []  # kept sorted
        super().__init__(runtime, oid, host_view=host_view)

    def _apply_add(self, v: Any, offset: int) -> None:
        index = bisect.bisect_left(self._items, v)
        if index == len(self._items) or self._items[index] != v:
            self._items.insert(index, v)

    def _apply_discard(self, v: Any, offset: int) -> None:
        index = bisect.bisect_left(self._items, v)
        if index < len(self._items) and self._items[index] == v:
            self._items.pop(index)

    def _apply_clear(self, offset: int) -> None:
        self._items.clear()

    def get_checkpoint(self) -> bytes:
        return json.dumps(self._items).encode("utf-8")

    def load_checkpoint(self, state: bytes) -> None:
        self._items = json.loads(state.decode("utf-8"))

    # -- mutators ---------------------------------------------------------------

    def add(self, value: Any) -> None:
        self._op("add", value, key=_version_key(value))

    def discard(self, value: Any) -> None:
        self._op("discard", value, key=_version_key(value))

    def clear(self) -> None:
        self._op("clear")

    # -- accessors ---------------------------------------------------------------

    def contains(self, value: Any) -> bool:
        self._query(key=_version_key(value))
        index = bisect.bisect_left(self._items, value)
        return index < len(self._items) and self._items[index] == value

    def first(self) -> Optional[Any]:
        """Smallest element (None when empty)."""
        self._query()
        return self._items[0] if self._items else None

    def last(self) -> Optional[Any]:
        """Largest element (None when empty)."""
        self._query()
        return self._items[-1] if self._items else None

    def floor(self, value: Any) -> Optional[Any]:
        """Largest element <= *value*."""
        self._query()
        index = bisect.bisect_right(self._items, value)
        return self._items[index - 1] if index > 0 else None

    def ceiling(self, value: Any) -> Optional[Any]:
        """Smallest element >= *value*."""
        self._query()
        index = bisect.bisect_left(self._items, value)
        return self._items[index] if index < len(self._items) else None

    def range(self, lo: Any, hi: Any) -> Tuple[Any, ...]:
        """All elements with lo <= e < hi, in order."""
        self._query()
        start = bisect.bisect_left(self._items, lo)
        stop = bisect.bisect_left(self._items, hi)
        return tuple(self._items[start:stop])

    def size(self) -> int:
        self._query()
        return len(self._items)

    def to_list(self) -> Tuple[Any, ...]:
        self._query()
        return tuple(self._items)
