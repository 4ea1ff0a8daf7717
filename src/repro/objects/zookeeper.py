"""TangoZK: the ZooKeeper interface as a Tango object.

Paper section 6.3: "we implemented the ZooKeeper interface over Tango in
less than 1000 lines of Java code, compared to over 13K lines for the
original". As in the paper, ACLs are out of scope; the znode tree,
versioned conditional updates, sequential and ephemeral nodes, watches,
and multi-ops are in.

Every mutating operation runs as a Tango transaction that reads the
preconditions ZooKeeper defines (parent exists, node absent/present,
version matches) and buffers unconditional update records, so the
optimistic concurrency control of the runtime enforces exactly
ZooKeeper's check-and-act semantics — including across *different*
TangoZK instances, which stock ZooKeeper cannot do ("The capability to
move files across different instances does not exist in ZooKeeper").

Fine-grained versioning: znode operations carry the path as the version
key, and structural changes (child add/remove, sequential counters)
additionally touch the parent path, so independent subtrees never
conflict.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.errors import (
    BadVersionError,
    NodeExistsError,
    NoNodeError,
    NotEmptyError,
    ZKError,
)
from repro.tango.object import TangoObject
from repro.util.encoding import OpTable


@dataclass(frozen=True)
class ZnodeStat:
    """The subset of ZooKeeper's Stat that Tango tracks."""

    version: int  # data version (bumped by set_data)
    cversion: int  # child-list version (bumped by child create/delete)
    czxid: int  # log offset of the creating update
    mzxid: int  # log offset of the last data modification
    ephemeral_owner: Optional[str]
    num_children: int


class _Znode:
    """In-view representation of one znode."""

    __slots__ = (
        "data",
        "version",
        "cversion",
        "czxid",
        "mzxid",
        "ephemeral_owner",
        "children",
        "seq_counter",
    )

    def __init__(self, data: bytes, czxid: int, ephemeral_owner: Optional[str]) -> None:
        self.data = data
        self.version = 0
        self.cversion = 0
        self.czxid = czxid
        self.mzxid = czxid
        self.ephemeral_owner = ephemeral_owner
        self.children: Set[str] = set()
        self.seq_counter = 0

    def clone(self) -> "_Znode":
        copy = _Znode(self.data, self.czxid, self.ephemeral_owner)
        copy.version = self.version
        copy.cversion = self.cversion
        copy.mzxid = self.mzxid
        copy.children = set(self.children)
        copy.seq_counter = self.seq_counter
        return copy


def _parent_of(path: str) -> str:
    if path == "/":
        raise ZKError("the root has no parent")
    parent = path.rsplit("/", 1)[0]
    return parent or "/"


def _validate_path(path: str) -> None:
    if not path.startswith("/"):
        raise ZKError(f"path must be absolute: {path!r}")
    if path != "/" and path.endswith("/"):
        raise ZKError(f"path must not end with '/': {path!r}")
    if "//" in path:
        raise ZKError(f"path contains empty component: {path!r}")


class TangoZK(TangoObject):
    """A hierarchical namespace (znode tree) over the shared log.

    Args:
        runtime: the hosting Tango runtime.
        oid: object id (each TangoZK instance is an independent
            namespace; applications may run several and move nodes
            between them transactionally).
        session_id: owner tag for ephemeral nodes created through this
            handle. There is no heartbeat machinery in-process; sessions
            end via :meth:`close_session` / :meth:`expire_session`.
    """

    #: Cross-instance transactions (e.g. moving a node between two
    #: namespaces hosted by different clients) need decision records.
    needs_decision_record = True

    # Znode data is base64 text, so legacy JSON ops decode to the same.
    OPS = OpTable(
        "create path data owner", "delete path", "set_data path data",
        "child_add path child sequential", "child_remove path child",
    )

    def __init__(
        self,
        runtime,
        oid: int,
        session_id: str = "session-0",
        host_view: bool = True,
    ) -> None:
        self._nodes: Dict[str, _Znode] = {"/": _Znode(b"", -1, None)}
        self._watches: Dict[str, List[Callable[[str, str], None]]] = {}
        self.session_id = session_id
        # Transaction-local shadow of modified znodes, so that later
        # operations in a multi (or any ambient transaction) observe
        # earlier ones' effects — ZooKeeper's multi semantics — even
        # though the runtime defers the actual updates to commit time.
        self._overlay_tx: int = 0
        self._overlay_nodes: Dict[str, Optional[_Znode]] = {}
        super().__init__(runtime, oid, host_view=host_view)

    # ------------------------------------------------------------------
    # apply upcall
    # ------------------------------------------------------------------

    def _apply_create(
        self, path: str, data: str, owner: Optional[str], offset: int
    ) -> None:
        if path in self._nodes:
            return  # apply must stay total; transactional
            # validation makes this unreachable in practice
        self._nodes[path] = _Znode(base64.b64decode(data), offset, owner)
        self._fire_watches(path, "created")

    def _apply_delete(self, path: str, offset: int) -> None:
        if self._nodes.pop(path, None) is not None:
            self._fire_watches(path, "deleted")

    def _apply_set_data(self, path: str, data: str, offset: int) -> None:
        node = self._nodes.get(path)
        if node is None:
            return
        node.data = base64.b64decode(data)
        node.version += 1
        node.mzxid = offset
        self._fire_watches(path, "changed")

    def _apply_child_add(
        self, path: str, child: str, sequential: bool, offset: int
    ) -> None:
        node = self._nodes.get(path)
        if node is None:
            return
        node.children.add(child)
        node.cversion += 1
        if sequential:
            node.seq_counter += 1
        self._fire_watches(path, "children")

    def _apply_child_remove(self, path: str, child: str, offset: int) -> None:
        node = self._nodes.get(path)
        if node is None:
            return
        node.children.discard(child)
        node.cversion += 1
        self._fire_watches(path, "children")

    def get_checkpoint(self) -> bytes:
        nodes = {}
        for path, node in self._nodes.items():
            nodes[path] = {
                "data": base64.b64encode(node.data).decode("ascii"),
                "version": node.version,
                "cversion": node.cversion,
                "czxid": node.czxid,
                "mzxid": node.mzxid,
                "owner": node.ephemeral_owner,
                "children": sorted(node.children),
                "seq": node.seq_counter,
            }
        return json.dumps(nodes).encode("utf-8")

    def load_checkpoint(self, state: bytes) -> None:
        raw = json.loads(state.decode("utf-8"))
        self._nodes = {}
        for path, d in raw.items():
            node = _Znode(base64.b64decode(d["data"]), d["czxid"], d["owner"])
            node.version = d["version"]
            node.cversion = d["cversion"]
            node.mzxid = d["mzxid"]
            node.children = set(d["children"])
            node.seq_counter = d["seq"]
            self._nodes[path] = node

    # ------------------------------------------------------------------
    # watches (one-shot, local, like ZooKeeper's)
    # ------------------------------------------------------------------

    def watch(self, path: str, callback: Callable[[str, str], None]) -> None:
        """Register a one-shot callback ``cb(path, event)`` on *path*.

        Events: ``created``, ``deleted``, ``changed``, ``children``.
        Watches are local to this view (as in ZooKeeper, where they are
        local to a session) and fire during the apply upcall.
        """
        self._watches.setdefault(path, []).append(callback)

    def _fire_watches(self, path: str, event: str) -> None:
        callbacks = self._watches.pop(path, None)
        if not callbacks:
            return
        for callback in callbacks:
            callback(path, event)

    # ------------------------------------------------------------------
    # transaction-local overlay (read-your-own-writes within a TX)
    # ------------------------------------------------------------------

    def _overlay(self) -> Optional[Dict[str, Optional[_Znode]]]:
        """The current transaction's shadow map, or None outside a TX."""
        ctx = self._runtime._current_tx()
        if ctx is None:
            return None
        if self._overlay_tx != ctx.tx_id:
            self._overlay_tx = ctx.tx_id
            self._overlay_nodes = {}
        return self._overlay_nodes

    def _lookup(self, path: str) -> Optional[_Znode]:
        """Effective znode: the TX overlay shadows the base view."""
        overlay = self._overlay()
        if overlay is not None and path in overlay:
            return overlay[path]
        return self._nodes.get(path)

    def _shadow(self, path: str) -> _Znode:
        """Clone-for-write *path* into the overlay; the node must exist."""
        overlay = self._overlay()
        node = self._lookup(path)
        if node is None:
            raise NoNodeError(path)
        if overlay is None:
            # Only reachable from inside a transaction body.
            raise ZKError("internal: _shadow outside a transaction")
        if path not in overlay or overlay[path] is not node:
            node = node.clone()
            overlay[path] = node
        return node

    # ------------------------------------------------------------------
    # read API
    # ------------------------------------------------------------------

    def exists(self, path: str, watch=None) -> Optional[ZnodeStat]:
        """Stat of *path*, or None if it does not exist.

        As in ZooKeeper, a *watch* callback may be registered in the
        same call that reads the state, closing the read-then-watch
        race window.
        """
        _validate_path(path)
        self._query(key=path.encode("utf-8"))
        if watch is not None:
            self.watch(path, watch)
        node = self._lookup(path)
        return self._stat(node) if node is not None else None

    def get_data(self, path: str, watch=None) -> Tuple[bytes, ZnodeStat]:
        """The data and stat of *path* (NoNodeError if absent)."""
        _validate_path(path)
        self._query(key=path.encode("utf-8"))
        node = self._require(path)
        if watch is not None:
            self.watch(path, watch)
        return node.data, self._stat(node)

    def get_children(self, path: str, watch=None) -> Tuple[str, ...]:
        """Sorted child names of *path*."""
        _validate_path(path)
        self._query(key=path.encode("utf-8"))
        node = self._require(path)
        if watch is not None:
            self.watch(path, watch)
        return tuple(sorted(node.children))

    def _require(self, path: str) -> _Znode:
        node = self._lookup(path)
        if node is None:
            raise NoNodeError(path)
        return node

    @staticmethod
    def _stat(node: _Znode) -> ZnodeStat:
        return ZnodeStat(
            version=node.version,
            cversion=node.cversion,
            czxid=node.czxid,
            mzxid=node.mzxid,
            ephemeral_owner=node.ephemeral_owner,
            num_children=len(node.children),
        )

    # ------------------------------------------------------------------
    # write API (each op is a Tango transaction unless already in one)
    # ------------------------------------------------------------------

    def _run(self, body):
        """Run *body* in the ambient transaction, or a fresh one."""
        if self._runtime._current_tx() is not None:
            return body()
        return self._runtime.run_transaction(body)

    def ensure_path(self, path: str) -> None:
        """Create *path* and any missing ancestors (kazoo-style).

        Existing nodes along the way are left untouched; the whole
        ladder of creates is one transaction.
        """
        _validate_path(path)
        if path == "/":
            return

        def body() -> None:
            components = path.strip("/").split("/")
            current = ""
            for component in components:
                current = f"{current}/{component}"
                self._query(key=current.encode("utf-8"))
                if self._lookup(current) is None:
                    self.create(current, b"")

        self._run(body)

    def create(
        self,
        path: str,
        data: bytes = b"",
        ephemeral: bool = False,
        sequential: bool = False,
        makepath: bool = False,
    ) -> str:
        """Create a znode; returns the actual path (with any sequential
        suffix). With ``makepath``, missing ancestors are created too
        (atomically with the node itself)."""
        _validate_path(path)
        if path == "/":
            raise NodeExistsError("/")
        if makepath:
            def with_ancestors() -> str:
                parent = _parent_of(path)
                if parent != "/":
                    self.ensure_path(parent)
                return self.create(
                    path, data, ephemeral=ephemeral, sequential=sequential
                )

            return self._run(with_ancestors)

        def body() -> str:
            parent_path = _parent_of(path)
            self._query(key=parent_path.encode("utf-8"))
            parent = self._lookup(parent_path)
            if parent is None:
                raise NoNodeError(parent_path)
            if parent.ephemeral_owner is not None:
                raise ZKError(f"ephemeral node {parent_path} cannot have children")
            actual = path
            if sequential:
                actual = f"{path}{parent.seq_counter:010d}"
            self._query(key=actual.encode("utf-8"))
            if self._lookup(actual) is not None:
                raise NodeExistsError(actual)
            child = actual.rsplit("/", 1)[1]
            self._op(
                "create", actual, base64.b64encode(data).decode("ascii"),
                self.session_id if ephemeral else None,
                key=actual.encode("utf-8"),
            )
            self._op(
                "child_add", parent_path, child, sequential,
                key=parent_path.encode("utf-8"),
            )
            # Mirror the (deferred) updates into the TX overlay so later
            # operations in the same transaction observe them.
            overlay = self._overlay()
            overlay[actual] = _Znode(
                data, -1, self.session_id if ephemeral else None
            )
            shadow_parent = self._shadow(parent_path)
            shadow_parent.children.add(child)
            shadow_parent.cversion += 1
            if sequential:
                shadow_parent.seq_counter += 1
            return actual

        return self._run(body)

    def delete(self, path: str, version: int = -1) -> None:
        """Delete a znode (must exist, be empty, and match *version*)."""
        _validate_path(path)
        if path == "/":
            raise ZKError("cannot delete the root")

        def body() -> None:
            self._query(key=path.encode("utf-8"))
            node = self._require(path)
            if node.children:
                raise NotEmptyError(path)
            if version != -1 and node.version != version:
                raise BadVersionError(
                    f"{path}: expected version {version}, is {node.version}"
                )
            parent_path = _parent_of(path)
            self._query(key=parent_path.encode("utf-8"))
            child = path.rsplit("/", 1)[1]
            self._op("delete", path, key=path.encode("utf-8"))
            self._op(
                "child_remove", parent_path, child, key=parent_path.encode("utf-8")
            )
            overlay = self._overlay()
            shadow_parent = self._shadow(parent_path)
            shadow_parent.children.discard(child)
            shadow_parent.cversion += 1
            overlay[path] = None

        self._run(body)

    def set_data(self, path: str, data: bytes, version: int = -1) -> ZnodeStat:
        """Replace a znode's data, optionally conditioned on *version*."""
        _validate_path(path)

        def body() -> ZnodeStat:
            self._query(key=path.encode("utf-8"))
            node = self._require(path)
            if version != -1 and node.version != version:
                raise BadVersionError(
                    f"{path}: expected version {version}, is {node.version}"
                )
            self._op(
                "set_data", path, base64.b64encode(data).decode("ascii"),
                key=path.encode("utf-8"),
            )
            shadow = self._shadow(path)
            shadow.data = data
            shadow.version += 1
            return self._stat(shadow)

        return self._run(body)

    def multi(self, ops: List[Tuple[str, tuple]]) -> List[Any]:
        """ZooKeeper's multi: an atomic batch of operations.

        Each op is ``("create", (path, data))``, ``("delete", (path,))``
        / ``("delete", (path, version))``, or
        ``("set_data", (path, data))`` / ``("set_data", (path, data,
        version))``. All succeed or none do.
        """
        dispatch = {
            "create": self.create,
            "delete": self.delete,
            "set_data": self.set_data,
        }

        def body() -> List[Any]:
            results = []
            for kind, args in ops:
                method = dispatch.get(kind)
                if method is None:
                    raise ZKError(f"unknown multi op {kind!r}")
                results.append(method(*args))
            return results

        return self._run(body)

    # ------------------------------------------------------------------
    # sessions (ephemeral-node cleanup)
    # ------------------------------------------------------------------

    def ephemerals(self, session_id: Optional[str] = None) -> Tuple[str, ...]:
        """Paths of ephemeral nodes owned by *session_id* (default ours)."""
        owner = session_id if session_id is not None else self.session_id
        self._query()
        return tuple(
            sorted(
                path
                for path, node in self._nodes.items()
                if node.ephemeral_owner == owner
            )
        )

    def expire_session(self, session_id: str) -> int:
        """Delete every ephemeral node owned by *session_id*.

        Any client may expire any session (in real ZooKeeper the leader
        does this on heartbeat timeout). Returns the number of nodes
        removed.
        """
        paths = self.ephemerals(session_id)

        def body() -> int:
            count = 0
            for path in sorted(paths, key=len, reverse=True):
                self._query(key=path.encode("utf-8"))
                if self._lookup(path) is not None:
                    self.delete(path)
                    count += 1
            return count

        return self._run(body)

    def close_session(self) -> int:
        """End this handle's session, removing its ephemeral nodes."""
        return self.expire_session(self.session_id)
