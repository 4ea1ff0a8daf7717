"""The Tango object library.

"Applications can use a standard set of objects provided by Tango,
providing interfaces similar to the Java Collections library or the C++
STL" (paper section 3). Every class here is persistent, strongly
consistent, and highly available purely by virtue of being layered over
the shared log; none contains any distributed protocol code.

Values stored in these objects must be JSON-serializable: an update is
one binary op (:class:`~repro.util.encoding.OpTable`) whose scalar
fields are packed and whose other fields are JSON text, so a value reads
back as a JSON round trip gives it. :class:`TangoBK` ledger entries and
:class:`TangoZK` znode data are raw bytes.
"""

from repro.objects.register import TangoRegister
from repro.objects.counter import TangoCounter
from repro.objects.map import TangoMap, TangoIndexedMap
from repro.objects.list import TangoList
from repro.objects.treeset import TangoTreeSet
from repro.objects.queue import TangoQueue
from repro.objects.lock import TangoLock
from repro.objects.graph import TangoGraph
from repro.objects.zookeeper import TangoZK, ZnodeStat
from repro.objects.bookkeeper import TangoBK, Ledger

__all__ = [
    "TangoRegister",
    "TangoCounter",
    "TangoMap",
    "TangoIndexedMap",
    "TangoList",
    "TangoTreeSet",
    "TangoQueue",
    "TangoLock",
    "TangoGraph",
    "TangoZK",
    "ZnodeStat",
    "TangoBK",
    "Ledger",
]
