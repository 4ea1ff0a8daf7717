"""A frozen copy of the JSON op encoders the object library used to write.

Until objects spoke binary ops (``repro.util.encoding.OpTable``), every
mutator of the ten ``repro.objects`` types, ``TangoDirectory`` and
``HostingRegistry`` sent its update as the UTF-8 JSON text built below,
byte for byte. Logs written that way must keep replaying, so tests write
such logs through this module and compare them with the same ops written
by the current code.

Do not edit: this is the format old logs are in. ``ENCODERS`` maps each
type to its ops, each taking the op's fields in the order its ``OPS``
table declares them.
"""

import json

from repro.objects import (
    Ledger,
    TangoCounter,
    TangoGraph,
    TangoIndexedMap,
    TangoList,
    TangoLock,
    TangoMap,
    TangoQueue,
    TangoRegister,
    TangoTreeSet,
    TangoZK,
)
from repro.tango.directory import TangoDirectory
from repro.tango.hosting import HostingRegistry


def _dump(op) -> bytes:
    return json.dumps(op).encode("utf-8")


_MAP = {
    "put": lambda k, v: _dump({"op": "put", "k": k, "v": v}),
    "remove": lambda k: _dump({"op": "remove", "k": k}),
    "clear": lambda: _dump({"op": "clear"}),
}

ENCODERS = {
    TangoMap: _MAP,
    TangoIndexedMap: _MAP,
    TangoRegister: {"write": lambda v: _dump(v)},
    TangoCounter: {
        "add": lambda n: _dump({"op": "add", "n": n}),
        "set": lambda n: _dump({"op": "set", "n": n}),
    },
    TangoQueue: {
        "enqueue": lambda v: _dump({"op": "enqueue", "v": v}),
        "dequeue": lambda: _dump({"op": "dequeue"}),
    },
    TangoList: {
        "append": lambda v: _dump({"op": "append", "v": v}),
        "insert": lambda i, v: _dump({"op": "insert", "i": i, "v": v}),
        "remove_value": lambda v: _dump({"op": "remove_value", "v": v}),
        "pop_head": lambda: _dump({"op": "pop_head"}),
        "clear": lambda: _dump({"op": "clear"}),
    },
    TangoTreeSet: {
        "add": lambda v: _dump({"op": "add", "v": v}),
        "discard": lambda v: _dump({"op": "discard", "v": v}),
        "clear": lambda: _dump({"op": "clear"}),
    },
    TangoLock: {
        "acquire": lambda name, holder: _dump(
            {"op": "acquire", "name": name, "holder": holder}
        ),
        "release": lambda name, holder: _dump(
            {"op": "release", "name": name, "holder": holder}
        ),
        "break": lambda name: _dump({"op": "break", "name": name}),
    },
    TangoGraph: {
        "add_node": lambda n, attrs: _dump({"op": "add_node", "n": n, "attrs": attrs}),
        "remove_node": lambda n: _dump({"op": "remove_node", "n": n}),
        "add_edge": lambda src, dst, label: _dump(
            {"op": "add_edge", "src": src, "dst": dst, "label": label}
        ),
        "remove_edge": lambda src, dst: _dump(
            {"op": "remove_edge", "src": src, "dst": dst}
        ),
    },
    Ledger: {
        "claim": lambda writer: _dump({"op": "claim", "writer": writer}),
        "add": lambda writer, seq, data: _dump(
            {"op": "add", "writer": writer, "seq": seq, "data": data}
        ),
        "fence": lambda writer: _dump({"op": "fence", "writer": writer}),
        "close": lambda writer, last: _dump(
            {"op": "close", "writer": writer, "last": last}
        ),
    },
    TangoZK: {
        "create": lambda path, data, owner: _dump(
            {"op": "create", "path": path, "data": data, "owner": owner}
        ),
        "delete": lambda path: _dump({"op": "delete", "path": path}),
        "set_data": lambda path, data: _dump(
            {"op": "set_data", "path": path, "data": data}
        ),
        "child_add": lambda path, child, sequential: _dump(
            {"op": "child_add", "path": path, "child": child, "sequential": sequential}
        ),
        "child_remove": lambda path, child: _dump(
            {"op": "child_remove", "path": path, "child": child}
        ),
    },
    TangoDirectory: {
        "create": lambda name, oid: _dump({"op": "create", "name": name, "oid": oid}),
        "forget": lambda oid, offset: _dump(
            {"op": "forget", "oid": oid, "offset": offset}
        ),
        "remove": lambda name: _dump({"op": "remove", "name": name}),
    },
    HostingRegistry: {
        "announce": lambda client, oids: _dump(
            {"op": "announce", "client": client, "oids": oids}
        ),
        "retract": lambda client, oids: _dump(
            {"op": "retract", "client": client, "oids": oids}
        ),
        "leave": lambda client: _dump({"op": "leave", "client": client}),
    },
}


def encode(obj, name: str, *fields) -> bytes:
    """The legacy JSON payload of op *name* of *obj*'s type."""
    return ENCODERS[type(obj)][name](*fields)
