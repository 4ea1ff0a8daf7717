"""Tango: distributed data structures over a shared log (SOSP 2013).

A complete Python reproduction: the CORFU shared log substrate, the
streaming layer, the Tango runtime (state machine replication and
transactions over the log), a library of Tango objects (including
ZooKeeper and BookKeeper clones), and a calibrated performance model
regenerating every figure in the paper's evaluation.

Quickstart::

    from repro import CorfuCluster, TangoRuntime, TangoDirectory, TangoMap

    cluster = CorfuCluster(num_sets=9, replication_factor=2)
    runtime = TangoRuntime(cluster, name="client-0")
    directory = TangoDirectory(runtime)
    users = directory.open(TangoMap, "users")
    users.put("alice", {"role": "admin"})
    print(users.get("alice"))

See ``examples/`` for multi-client scenarios, transactions across
objects, and the mini HDFS namenode.
"""

from importlib import import_module
from typing import TYPE_CHECKING, Any, List

if TYPE_CHECKING:  # pragma: no cover - the typed surface py.typed promises
    from repro.corfu import CorfuClient, CorfuCluster, Projection, ReplicaSet
    from repro.errors import ReproError, TangoError, TransactionAborted
    from repro.objects import (
        Ledger,
        TangoBK,
        TangoCounter,
        TangoIndexedMap,
        TangoList,
        TangoMap,
        TangoQueue,
        TangoRegister,
        TangoTreeSet,
        TangoZK,
    )
    from repro.streams import StreamClient
    from repro.tango import TangoObject, TangoRuntime
    from repro.tango.directory import TangoDirectory

__version__ = "1.0.0"

__all__ = [
    "CorfuCluster",
    "CorfuClient",
    "Projection",
    "ReplicaSet",
    "StreamClient",
    "TangoRuntime",
    "TangoObject",
    "TangoDirectory",
    "TangoRegister",
    "TangoCounter",
    "TangoMap",
    "TangoIndexedMap",
    "TangoList",
    "TangoTreeSet",
    "TangoQueue",
    "TangoZK",
    "TangoBK",
    "Ledger",
    "ReproError",
    "TangoError",
    "TransactionAborted",
    "__version__",
]

#: The module each exported name comes from. Every package under
#: ``repro`` resolves its names on first access, so a process loads only
#: what it uses: a node process imports none of the client stack.
_SOURCES = {
    "repro.corfu": ("CorfuCluster", "CorfuClient", "Projection", "ReplicaSet"),
    "repro.streams": ("StreamClient",),
    "repro.tango": ("TangoRuntime", "TangoObject"),
    "repro.tango.directory": ("TangoDirectory",),
    "repro.objects": (
        "TangoRegister", "TangoCounter", "TangoMap", "TangoIndexedMap",
        "TangoList", "TangoTreeSet", "TangoQueue", "TangoZK", "TangoBK",
        "Ledger",
    ),
    "repro.errors": ("ReproError", "TangoError", "TransactionAborted"),
}


def _lazy_exports(namespace, sources):
    """PEP 562 ``__getattr__`` and ``__dir__`` for a package whose globals
    are *namespace*: each name in *sources* (module -> names) is imported
    on first access, then cached in *namespace* so later lookups skip it."""
    exports = {name: module for module, names in sources.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = exports.get(name)
        if module is None:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        namespace[name] = value = getattr(import_module(module), name)
        return value

    def __dir__() -> List[str]:
        return sorted({*namespace, *exports})

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_exports(globals(), _SOURCES)
