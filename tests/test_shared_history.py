"""Figure 5(b): different in-memory structures over the same history.

Paper section 3.1: "objects with different in-memory data structures can
share the same data on the log. For example, a namespace can be
represented by different trees, one ordered on the filename and the
other on a directory hierarchy, allowing applications to perform two
types of queries efficiently."

Here, one client hosts a plain :class:`TangoMap` while another hosts a
sorted key index over the *same stream* — same OID, same update records,
different view structure.
"""

import bisect
import json

import pytest

from repro.objects import TangoMap
from repro.tango.object import TangoObject


class SortedKeyIndex(TangoObject):
    """A view of a TangoMap's stream that keeps keys sorted.

    Answers "list all keys starting with B" style queries in O(log n),
    which the hash-map view cannot.
    """

    def __init__(self, runtime, oid, host_view=True):
        self._keys = []
        super().__init__(runtime, oid, host_view=host_view)

    def apply(self, payload, offset):
        # A foreign view of the map's stream reads the map's ops.
        op, fields = TangoMap.decode_op(payload)
        if op == "put":
            index = bisect.bisect_left(self._keys, fields[0])
            if index == len(self._keys) or self._keys[index] != fields[0]:
                self._keys.insert(index, fields[0])
        elif op == "remove":
            index = bisect.bisect_left(self._keys, fields[0])
            if index < len(self._keys) and self._keys[index] == fields[0]:
                self._keys.pop(index)
        else:  # clear
            self._keys.clear()

    def get_checkpoint(self):
        return json.dumps(self._keys).encode("utf-8")

    def load_checkpoint(self, state):
        self._keys = json.loads(state.decode("utf-8"))

    def prefix(self, text):
        """All keys starting with *text*, in order (linearizable)."""
        self._query()
        lo = bisect.bisect_left(self._keys, text)
        hi = bisect.bisect_left(self._keys, text + "￿")
        return tuple(self._keys[lo:hi])

    def first(self):
        self._query()
        return self._keys[0] if self._keys else None


class TestSharedHistory:
    def test_two_structures_one_stream(self, make_runtime):
        rt_map, rt_index = make_runtime(), make_runtime()
        mapping = TangoMap(rt_map, oid=1)
        index = SortedKeyIndex(rt_index, oid=1)
        for name in ("beta", "alpha", "bravo", "charlie"):
            mapping.put(name, name.upper())
        assert mapping.get("bravo") == "BRAVO"
        assert index.prefix("b") == ("beta", "bravo")
        assert index.first() == "alpha"

    def test_removals_propagate_to_both_views(self, make_runtime):
        rt_map, rt_index = make_runtime(), make_runtime()
        mapping = TangoMap(rt_map, oid=1)
        index = SortedKeyIndex(rt_index, oid=1)
        mapping.put("a", 1)
        mapping.put("b", 2)
        mapping.remove("a")
        assert index.prefix("") == ("b",)
        assert mapping.get("a") is None

    def test_index_writes_visible_in_map(self, make_runtime):
        """Either view may mutate; the log is the object."""
        rt_map, rt_index = make_runtime(), make_runtime()
        mapping = TangoMap(rt_map, oid=1)
        index = SortedKeyIndex(rt_index, oid=1)
        # The index client writes through the shared stream using the
        # map's record format.
        op = json.dumps({"op": "put", "k": "via-index", "v": 9})
        rt_index.update_helper(1, op.encode("utf-8"), key=b"via-index")
        assert mapping.get("via-index") == 9
        assert index.prefix("via") == ("via-index",)

    def test_transaction_consistent_across_structures(self, make_runtime):
        """A TX validated on the map's versions applies to both views."""
        rt_map, rt_index = make_runtime(), make_runtime()
        mapping = TangoMap(rt_map, oid=1)
        index = SortedKeyIndex(rt_index, oid=1)
        mapping.put("k", 0)
        mapping.get("k")

        def bump():
            mapping.put("k2", mapping.get("k") + 1)

        rt_map.run_transaction(bump)
        assert index.prefix("k") == ("k", "k2")
