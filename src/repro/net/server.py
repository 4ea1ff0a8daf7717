"""TCP server loop hosting a node behind the ``call(...)`` contract.

A :class:`NodeServer` owns one listening socket and a registry of named
node objects (a :class:`~repro.corfu.storage.FlashUnit`, a
:class:`~repro.corfu.sequencer.Sequencer`, or any object with public
callables for tests). Each accepted connection gets a dedicated thread
that reads request frames and writes response frames; requests address
a node by name, so one server process can host several nodes (a whole
replica set in one process for tests, one node per process in a real
deployment under :mod:`repro.proc`).

Request/response protocol (see :mod:`repro.net.wire` for the frame
layout):

- request: ``{"id", "source", "target", "op", "args", "kwargs"}``
- response: ``{"id", "ok": value}`` or ``{"id", "err": envelope}``

Every response echoes the request ``id``; the client uses it to discard
stale responses after a timeout, which is what makes retries exactly
once when they land on an idempotence check rather than a fresh
execution.

Ops are allow-listed per node kind (:data:`~repro.net.wire.STORAGE_OPS`
/ :data:`~repro.net.wire.SEQUENCER_OPS` plus
:data:`~repro.net.wire.ADMIN_OPS`): the wire surface is the RPC
surface, never arbitrary attribute access — the same contract
:class:`~repro.net.transport.RpcProxy` enforces in-process.

Concurrency: the registry is written before :meth:`start` and read-only
afterwards. ``_conn_lock`` guards only the set of open connection
sockets (add/remove/snapshot); sockets are closed *outside* the lock.
Node objects do their own locking — the server calls them exactly like
a loopback transport would.

Run directly to host one node::

    python -m repro.net.server --name flash-0-0 --kind storage --port 0

prints ``READY <name> <host> <port>`` on stdout once serving (port 0
lets the OS pick; the supervisor parses the READY line), and exits
cleanly on SIGTERM/SIGINT or a ``shutdown`` RPC.
"""

from __future__ import annotations

import argparse
import os
import signal
import socket
import sys
import threading
from contextlib import suppress
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from repro.errors import NodeDownError
from repro.net.wire import (
    ADMIN_OPS,
    SEQUENCER_OPS,
    STORAGE_OPS,
    FramedSocket,
    decode_value,
    encode_error,
    encode_frame,
    encode_value,
    recv_frame,
)


def _public_callables(obj: object) -> FrozenSet[str]:
    """Fallback allowlist for test doubles: every public method."""
    return frozenset(
        name
        for name in dir(obj)
        if not name.startswith("_") and callable(getattr(obj, name))
    )


def infer_ops(obj: object) -> FrozenSet[str]:
    """The op allowlist for *obj*, by node kind."""
    # *obj* is of a kind only if that kind's module is loaded, so a node
    # process never imports the other kind's.
    storage = sys.modules.get("repro.corfu.storage")
    if storage is not None and isinstance(obj, storage.FlashUnit):
        return STORAGE_OPS
    sequencer = sys.modules.get("repro.corfu.sequencer")
    if sequencer is not None and isinstance(obj, sequencer.Sequencer):
        return SEQUENCER_OPS
    return _public_callables(obj)


class NodeServer:
    """Host registered node objects on one TCP listening socket."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._registry: Dict[str, Tuple[object, FrozenSet[str]]] = {}
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(64)
        self.host, self.port = self._listener.getsockname()[:2]
        self._accept_thread: Optional[threading.Thread] = None
        self._conn_threads: List[threading.Thread] = []
        self._conns: set = set()
        # Guards _conns and _conn_threads membership only; socket I/O
        # and close() always happen outside it.
        self._conn_lock = threading.Lock()
        self._stopped = threading.Event()

    # -- registry (write before start(); read-only while serving) -----------

    def register(
        self, name: str, obj: object, ops: Optional[FrozenSet[str]] = None
    ) -> None:
        """Serve *obj* as node *name*; *ops* defaults to its kind's set."""
        allowed = (ops if ops is not None else infer_ops(obj)) | ADMIN_OPS
        self._registry[name] = (obj, allowed)

    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._registry))

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "NodeServer":
        """Begin accepting connections on a daemon thread."""
        if self._accept_thread is not None:
            raise RuntimeError("server already started")
        self._accept_thread = threading.Thread(
            target=self._accept_loop,
            name=f"repro-server-{self.port}",
            daemon=True,
        )
        self._accept_thread.start()
        return self

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until :meth:`stop` is called; True once stopped."""
        return self._stopped.wait(timeout)

    def stop(self) -> None:
        """Stop accepting, close every connection, join worker threads."""
        if self._stopped.is_set():
            return
        self._stopped.set()
        # shutdown() before close(): a close alone does not wake a
        # thread blocked inside accept() — the in-flight syscall keeps
        # the kernel listener alive, silently accepting connections to
        # a "stopped" server. Shutdown aborts the accept immediately
        # and refuses new SYNs.
        with suppress(OSError):
            self._listener.shutdown(socket.SHUT_RDWR)
        with suppress(OSError):
            self._listener.close()
        with self._conn_lock:
            conns = list(self._conns)
            threads = list(self._conn_threads)
        for conn in conns:
            with suppress(OSError):
                conn.close()
        me = threading.current_thread()
        if self._accept_thread is not None and self._accept_thread is not me:
            self._accept_thread.join(timeout=2.0)
        for thread in threads:
            if thread is not me:
                thread.join(timeout=2.0)

    def __enter__(self) -> "NodeServer":
        return self.start() if self._accept_thread is None else self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- serving -------------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stopped.is_set():
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return  # listener closed by stop()
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            thread = threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name=f"repro-conn-{self.port}",
                daemon=True,
            )
            with self._conn_lock:
                stopping = self._stopped.is_set()
                if not stopping:
                    self._conns.add(conn)
                    self._conn_threads.append(thread)
            if stopping:
                with suppress(OSError):
                    conn.close()
                return
            thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        framed = FramedSocket(conn)
        try:
            while not self._stopped.is_set():
                try:
                    request = recv_frame(framed)
                except (OSError, ValueError):
                    return  # peer went away or sent garbage: drop the conn
                if request is None:
                    return  # clean EOF
                try:
                    framed.sendall(self._respond(request))
                except (OSError, ValueError):
                    return
        finally:
            with self._conn_lock:
                self._conns.discard(conn)
            with suppress(OSError):
                conn.close()

    # Dispatch lives outside any loop body on purpose: the RPC boundary
    # catches *everything* a node raises and ships it as a typed error
    # envelope — the client, not the server, decides what is fatal. A
    # reply too large to frame is such an error too: the caller's, not
    # a reason to drop the connection.
    def _respond(self, request: Dict[str, Any]) -> bytes:
        """The framed reply to *request*, encoded once."""
        rid = request.get("id")
        target = request.get("target", "")
        op = request.get("op", "")
        try:
            entry = self._registry.get(target)
            if entry is None:
                raise NodeDownError(target)
            obj, allowed = entry
            if op not in allowed:
                raise ValueError(f"op {op!r} is not served by node {target!r}")
            if op == "ping":
                kind = type(obj).__name__
                result: Any = {"name": target, "kind": kind, "pid": os.getpid()}
            elif op == "shutdown":
                # Reply first, then stop from a fresh thread so this
                # connection's response reaches the wire.
                threading.Timer(0.05, self.stop).start()
                result = True
            else:
                args = decode_value(request.get("args", []))
                kwargs = decode_value(request.get("kwargs", {}))
                method = getattr(obj, op, None)
                if not callable(method):
                    raise TypeError(
                        f"op {op!r} on node {target!r} is not callable"
                    )
                result = method(*args, **kwargs)
            return encode_frame({"id": rid, "ok": encode_value(result)})
        except Exception as exc:
            return encode_frame({"id": rid, "err": encode_error(exc)})

def _build_node(
    kind: str,
    name: str,
    k: int,
    data_dir: Optional[str] = None,
    segment_bytes: Optional[int] = None,
    compact_interval: float = 0.0,
    shard_index: int = 0,
    num_shards: int = 1,
):
    if kind == "storage":
        if data_dir is None:
            from repro.corfu.storage import FlashUnit

            return FlashUnit(name)
        from repro.store import open_node_unit

        unit = open_node_unit(data_dir, name, segment_bytes=segment_bytes)
        if compact_interval > 0:
            unit.start_compaction(compact_interval)
        return unit
    if kind == "sequencer":
        from repro.corfu.sequencer import Sequencer

        return Sequencer(
            name, k=k, shard_index=shard_index, num_shards=num_shards
        )
    raise ValueError(f"unknown node kind {kind!r}")


def register_sequencer_group(server: "NodeServer", group) -> None:
    """Serve every shard of a :class:`~repro.corfu.sequencer.ShardedSequencer`.

    One server can host the whole group (each shard addressable by its
    own node name) for tests and small deployments; production-style
    deployments host one shard per process via ``--shard-index``.
    """
    for shard in group:
        server.register(shard.name, shard)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.net.server",
        description="Host one CORFU node (storage or sequencer) over TCP.",
    )
    parser.add_argument("--name", required=True, help="node name")
    parser.add_argument(
        "--kind", required=True, choices=("storage", "sequencer")
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0, help="0 lets the OS pick"
    )
    parser.add_argument(
        "--k", type=int, default=4, help="sequencer backpointers per stream"
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=0,
        help="host a whole sharded sequencer group (--name is the group "
        "label; shards are served as <name>.0 .. <name>.N-1)",
    )
    parser.add_argument(
        "--shard-index",
        type=int,
        default=0,
        help="host one striped shard: its index within --num-shards",
    )
    parser.add_argument(
        "--num-shards",
        type=int,
        default=1,
        help="shard-group size when hosting one shard via --shard-index",
    )
    parser.add_argument(
        "--data-dir",
        default=None,
        help="persist a storage node to segmented durable storage under "
        "this directory (a legacy <name>.flash file there is migrated)",
    )
    parser.add_argument(
        "--segment-bytes",
        type=int,
        default=None,
        help="segment roll size for --data-dir storage",
    )
    parser.add_argument(
        "--compact-interval",
        type=float,
        default=0.0,
        help="seconds between background compaction sweeps for "
        "--data-dir storage (0 disables; the 'compact' RPC always works)",
    )
    args = parser.parse_args(argv)

    monitor = None
    if os.environ.get("REPRO_LOCKCHECK") == "1":
        from repro.tools import lockcheck

        monitor = lockcheck.install()

    if args.data_dir is not None and args.kind == "storage":
        os.makedirs(args.data_dir, exist_ok=True)
    server = NodeServer(host=args.host, port=args.port)
    if args.kind == "sequencer" and args.shards > 1:
        from repro.corfu.sequencer import ShardedSequencer

        register_sequencer_group(
            server, ShardedSequencer(args.name, shards=args.shards, k=args.k)
        )
    else:
        node = _build_node(
            args.kind,
            args.name,
            args.k,
            data_dir=args.data_dir if args.kind == "storage" else None,
            segment_bytes=args.segment_bytes,
            compact_interval=args.compact_interval,
            shard_index=args.shard_index,
            num_shards=args.num_shards,
        )
        server.register(args.name, node)
    server.start()
    print(f"READY {args.name} {server.host} {server.port}", flush=True)

    def _on_signal(signum: int, frame: object) -> None:
        server.stop()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    while not server.wait(0.5):
        pass
    if monitor is not None:
        monitor.assert_acyclic()
    return 0


if __name__ == "__main__":
    sys.exit(main())
