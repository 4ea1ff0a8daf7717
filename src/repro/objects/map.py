"""TangoMap: a replicated hash map with fine-grained versioning.

The workhorse of the paper's evaluation (Figures 9 and 10). Keys are
strings; values any JSON-serializable object (scalars travel packed, the
rest as JSON text; see :class:`~repro.util.encoding.OpTable`). Every
operation passes the key to the runtime's helper calls, so transactions
touching disjoint keys do not conflict (section 3.2, "Versioning").

:class:`TangoIndexedMap` is the log-structured variant from section 3.1
("Durability"): its view maps keys to *log offsets* instead of values,
"effectively turning the data structure into an index over
log-structured storage"; a get consults the index and then issues a
random read to the shared log for the value.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional, Tuple

from repro.tango.object import TangoObject
from repro.tango.records import UpdateRecord, decode_records
from repro.util.encoding import OpTable


class TangoMap(TangoObject):
    """A persistent, transactional string-keyed map."""

    OPS = OpTable("put k v", "remove k", "clear")

    def __init__(self, runtime, oid: int, host_view: bool = True) -> None:
        self._map: Dict[str, Any] = {}
        super().__init__(runtime, oid, host_view=host_view)

    # Bound here too, so the map's apply is an attribute of its own class
    # (tangobench times ``TangoMap.apply`` by name).
    apply = TangoObject.apply

    def _apply_put(self, k: str, v: Any, offset: int) -> None:
        self._map[k] = v

    def _apply_remove(self, k: str, offset: int) -> None:
        self._map.pop(k, None)

    def _apply_clear(self, offset: int) -> None:
        self._map.clear()

    def get_checkpoint(self) -> bytes:
        return json.dumps(self._map).encode("utf-8")

    def load_checkpoint(self, state: bytes) -> None:
        self._map = json.loads(state.decode("utf-8"))

    def get_checkpoint_delta(self, keys) -> bytes:
        """Serialize only the entries behind the changed version *keys*.

        ``clear`` is unkeyed, so the runtime forces a full checkpoint
        after one — a delta never has to express "everything vanished".
        """
        puts: Dict[str, Any] = {}
        dels = []
        for raw in sorted(keys):
            key = raw.decode("utf-8")
            if key in self._map:
                puts[key] = self._map[key]
            else:
                dels.append(key)
        return json.dumps({"set": puts, "del": dels}, sort_keys=True).encode(
            "utf-8"
        )

    def load_checkpoint_delta(self, state: bytes) -> None:
        delta = json.loads(state.decode("utf-8"))
        self._map.update(delta.get("set", {}))
        for key in delta.get("del", ()):
            self._map.pop(key, None)

    # -- mutators ---------------------------------------------------------------

    def put(self, key: str, value: Any) -> None:
        self._op("put", key, value, key=key.encode("utf-8"))

    def remove(self, key: str) -> None:
        self._op("remove", key, key=key.encode("utf-8"))

    def clear(self) -> None:
        """Drop every key (bumps the whole-object version)."""
        self._op("clear")

    # -- accessors ---------------------------------------------------------------

    def get(self, key: str, default: Any = None) -> Any:
        self._query(key=key.encode("utf-8"))
        return self._map.get(key, default)

    def contains(self, key: str) -> bool:
        self._query(key=key.encode("utf-8"))
        return key in self._map

    def size(self) -> int:
        """Linearizable size (reads the whole object)."""
        self._query()
        return len(self._map)

    def keys(self) -> Tuple[str, ...]:
        self._query()
        return tuple(self._map)

    def items(self) -> Tuple[Tuple[str, Any], ...]:
        self._query()
        return tuple(self._map.items())


class TangoIndexedMap(TangoObject):
    """A map whose view is an index into the shared log.

    The apply upcall stores the update's log offset; ``get`` dereferences
    the offset with a random read. Values therefore live exactly once,
    in the log, regardless of how many clients host views. It reads and
    writes :class:`TangoMap`'s ops, so both views can share one stream.
    """

    OPS = TangoMap.OPS

    def __init__(self, runtime, oid: int, host_view: bool = True) -> None:
        self._index: Dict[str, int] = {}
        super().__init__(runtime, oid, host_view=host_view)

    def _apply_put(self, k: str, v: Any, offset: int) -> None:
        self._index[k] = offset

    def _apply_remove(self, k: str, offset: int) -> None:
        self._index.pop(k, None)

    def _apply_clear(self, offset: int) -> None:
        self._index.clear()

    def get_checkpoint(self) -> bytes:
        return json.dumps(self._index).encode("utf-8")

    def load_checkpoint(self, state: bytes) -> None:
        self._index = json.loads(state.decode("utf-8"))

    def put(self, key: str, value: Any) -> None:
        self._op("put", key, value, key=key.encode("utf-8"))

    def remove(self, key: str) -> None:
        self._op("remove", key, key=key.encode("utf-8"))

    def get(self, key: str, default: Any = None) -> Any:
        """Index lookup followed by a random read of the log."""
        self._query(key=key.encode("utf-8"))
        offset = self._index.get(key)
        if offset is None:
            return default
        entry = self._runtime.streams.fetch(offset)
        # The offset may hold a plain update record, or a commit record
        # whose transaction carried the put inline (a transaction's
        # writes become visible — and are indexed — at its commit point).
        candidates = []
        for record in decode_records(entry.payload):
            if isinstance(record, UpdateRecord):
                candidates.append(record)
            else:
                candidates.extend(getattr(record, "inline_updates", ()))
        # A transaction may put the same key twice; the last write wins.
        for record in reversed(candidates):
            if record.oid == self.oid:
                name, fields = self.decode_op(record.payload)
                if name == "put" and fields[0] == key:
                    return fields[1]
        return default

    def offset_of(self, key: str) -> Optional[int]:
        """The log offset backing *key* (for tests and introspection)."""
        self._query(key=key.encode("utf-8"))
        return self._index.get(key)

    def size(self) -> int:
        self._query()
        return len(self._index)
