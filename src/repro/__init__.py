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

#: The submodule each exported name comes from. Names resolve on first
#: access, so a node process that imports only ``repro.net.server``
#: never loads the runtime, the streams layer or the object library.
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
_EXPORTS = {name: module for module, names in _SOURCES.items() for name in names}


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(import_module(module), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> List[str]:
    return sorted({*globals(), *_EXPORTS})
