"""TangoGraph: a replicated directed graph.

The paper's introduction lists "network topologies" and "provenance
graphs" among real-world metadata; this object serves both. The view is
an adjacency map; mutators carry the touched node as the fine-grained
versioning key, so transactions editing disjoint regions of the graph
never conflict.

Edges may carry JSON-serializable labels (link capacity, provenance
relation, ...). Accessors include the queries topology services
actually run: neighbours, degree, and bounded reachability.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Dict, Optional, Set, Tuple

from repro.tango.object import TangoObject
from repro.util.encoding import OpTable


class TangoGraph(TangoObject):
    """A persistent, transactional directed graph."""

    OPS = OpTable(
        "add_node n attrs", "remove_node n", "add_edge src dst label",
        "remove_edge src dst",
    )

    def __init__(self, runtime, oid: int, host_view: bool = True) -> None:
        self._nodes: Dict[str, Any] = {}  # node -> attribute value
        self._edges: Dict[str, Dict[str, Any]] = {}  # src -> {dst: label}
        super().__init__(runtime, oid, host_view=host_view)

    # -- upcalls ------------------------------------------------------------

    def _apply_add_node(self, n: str, attrs: Any, offset: int) -> None:
        self._nodes[n] = attrs
        self._edges.setdefault(n, {})

    def _apply_remove_node(self, n: str, offset: int) -> None:
        self._nodes.pop(n, None)
        self._edges.pop(n, None)
        for targets in self._edges.values():
            targets.pop(n, None)

    def _apply_add_edge(self, src: str, dst: str, label: Any, offset: int) -> None:
        # Implicit node creation keeps apply total under any
        # interleaving of concurrent mutators.
        self._nodes.setdefault(src, None)
        self._nodes.setdefault(dst, None)
        self._edges.setdefault(src, {})[dst] = label
        self._edges.setdefault(dst, {})

    def _apply_remove_edge(self, src: str, dst: str, offset: int) -> None:
        targets = self._edges.get(src)
        if targets is not None:
            targets.pop(dst, None)

    def get_checkpoint(self) -> bytes:
        return json.dumps({"nodes": self._nodes, "edges": self._edges}).encode()

    def load_checkpoint(self, state: bytes) -> None:
        data = json.loads(state.decode("utf-8"))
        self._nodes = data["nodes"]
        self._edges = data["edges"]

    # -- mutators --------------------------------------------------------------

    def add_node(self, node: str, attrs: Any = None) -> None:
        self._op("add_node", node, attrs, key=node.encode("utf-8"))

    def remove_node(self, node: str) -> None:
        """Remove a node and every edge touching it (whole-object
        version bump: incident edges may live anywhere)."""
        self._op("remove_node", node)

    def add_edge(self, src: str, dst: str, label: Any = None) -> None:
        self._op("add_edge", src, dst, label, key=src.encode("utf-8"))

    def remove_edge(self, src: str, dst: str) -> None:
        self._op("remove_edge", src, dst, key=src.encode("utf-8"))

    # -- accessors --------------------------------------------------------------

    def has_node(self, node: str) -> bool:
        self._query(key=node.encode("utf-8"))
        return node in self._nodes

    def node_attrs(self, node: str) -> Any:
        self._query(key=node.encode("utf-8"))
        return self._nodes.get(node)

    def neighbors(self, node: str) -> Tuple[str, ...]:
        """Outgoing neighbours of *node*, sorted."""
        self._query(key=node.encode("utf-8"))
        return tuple(sorted(self._edges.get(node, ())))

    def edge_label(self, src: str, dst: str) -> Any:
        self._query(key=src.encode("utf-8"))
        return self._edges.get(src, {}).get(dst)

    def degree(self, node: str) -> int:
        self._query(key=node.encode("utf-8"))
        return len(self._edges.get(node, ()))

    def node_count(self) -> int:
        self._query()
        return len(self._nodes)

    def reachable(self, src: str, dst: str, max_hops: Optional[int] = None) -> bool:
        """BFS reachability over the linearizable view.

        The provenance question ("does artifact B descend from A?") and
        the topology question ("is there a path from rack X to rack
        Y?") in one accessor.
        """
        self._query()
        if src not in self._nodes or dst not in self._nodes:
            return False
        if src == dst:
            return True
        seen: Set[str] = {src}
        frontier = deque([(src, 0)])
        while frontier:
            node, depth = frontier.popleft()
            if max_hops is not None and depth >= max_hops:
                continue
            for nxt in self._edges.get(node, ()):
                if nxt == dst:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append((nxt, depth + 1))
        return False

    # -- transactional pattern ------------------------------------------------------

    def move_edge(self, src: str, old_dst: str, new_dst: str) -> None:
        """Atomically repoint an edge (e.g. re-cable a topology link)."""

        def body() -> None:
            self._query(key=src.encode("utf-8"))
            if old_dst not in self._edges.get(src, {}):
                raise KeyError(f"no edge {src} -> {old_dst}")
            label = self._edges[src][old_dst]
            self.remove_edge(src, old_dst)
            self.add_edge(src, new_dst, label)

        self._runtime.run_transaction(body)
