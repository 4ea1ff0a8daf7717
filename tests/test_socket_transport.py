"""SocketTransport + NodeServer against in-process server threads.

Exercises the full TCP RPC path — framing, request-id correlation,
typed error propagation, deadlines, reconnects, node-down detection —
without spawning child processes, so it runs everywhere fast. The
multi-process behaviors (SIGKILL, supervision) live in
``test_wire_cluster.py``.
"""

import select
import socket
import struct
import threading
import time

import pytest

from repro.corfu.sequencer import Sequencer
from repro.corfu.storage import FlashUnit
from repro.errors import (
    NodeDownError,
    RpcTimeout,
    SealedError,
    UnwrittenError,
)
from repro.net import wire
from repro.net.server import NodeServer
from repro.net.socket import SocketTransport
from repro.net.wire import FramedSocket, recv_frame, send_frame


@pytest.fixture()
def server():
    srv = NodeServer()
    srv.register("flash-0-0", FlashUnit("flash-0-0"))
    srv.register("seq-0", Sequencer("seq-0", k=4))
    srv.start()
    yield srv
    srv.stop()


@pytest.fixture()
def net(server):
    transport = SocketTransport(
        addresses={
            "flash-0-0": server.address,
            "seq-0": server.address,  # one server hosts both nodes
        },
        timeout=2.0,
    )
    yield transport
    transport.close()


def _storage(net, name="flash-0-0"):
    return net.proxy("client-1", name, lambda: None)


def _sequencer(net, name="seq-0"):
    return net.proxy("client-1", name, lambda: None)


class TestCallPath:
    def test_write_then_read_round_trips_bytes(self, net):
        proxy = _storage(net)
        payload = bytes(range(256))
        assert proxy.write(0, payload, 0) is None
        assert proxy.read(0, 0) == payload

    def test_read_many_preserves_int_keys_and_tuples(self, net):
        proxy = _storage(net)
        proxy.write(1, b"one", 0)
        got = proxy.read_many([0, 1], 0)
        assert got == {0: ("unwritten", None), 1: ("ok", b"one")}
        assert all(isinstance(k, int) for k in got)
        assert isinstance(got[1], tuple)

    def test_sequencer_grant_shapes_survive(self, net):
        proxy = _sequencer(net)
        first, backpointers = proxy.increment((1,), epoch=0, count=2)
        assert first == 0
        assert isinstance(backpointers, dict)
        assert isinstance(backpointers[1], tuple)
        tail, tails = proxy.query((1,), epoch=0)
        assert tail == 2
        assert tails[1][:2] == (1, 0)

    def test_typed_errors_propagate_with_attributes(self, net):
        proxy = _storage(net)
        with pytest.raises(UnwrittenError) as excinfo:
            proxy.read(42, 0)
        assert excinfo.value.offset == 42
        proxy.seal(3)
        with pytest.raises(SealedError) as excinfo:
            proxy.write(0, b"x", 0)
        assert excinfo.value.epoch == 3

    def test_delivery_is_counted_per_endpoint(self, net):
        proxy = _storage(net)
        proxy.write(0, b"x", 0)
        proxy.read(0, 0)
        stats = net.endpoint_stats()["flash-0-0"]
        assert stats["rpcs"] == 2
        assert stats["timeouts"] == 0

    def test_connections_are_pooled_and_reused(self, net, server):
        proxy = _storage(net)
        for offset in range(8):
            proxy.write(offset, b"x", 0)
        # Sequential calls reuse one pooled connection rather than
        # opening one socket per RPC.
        with server._conn_lock:
            assert len(server._conns) <= 2


class TestFailureModes:
    def test_unknown_target_is_node_down(self, net):
        with pytest.raises(NodeDownError):
            _storage(net, "flash-9-9").read(0, 0)

    def test_unregistered_node_on_live_server_is_node_down(self, net, server):
        net.set_address("ghost", *server.address)
        with pytest.raises(NodeDownError):
            net.proxy("client-1", "ghost", lambda: None).read(0, 0)

    def test_op_outside_allowlist_is_rejected(self, net):
        # A FlashUnit serves STORAGE_OPS only: its other public
        # methods (e.g. crash) are not reachable over the wire.
        with pytest.raises(ValueError, match="not served"):
            _storage(net).crash()

    def test_slow_op_times_out_and_connection_recovers(self, server):
        class Sluggish:
            def nap(self, seconds):
                time.sleep(seconds)
                return "rested"

        server.register("slow-0", Sluggish())
        net = SocketTransport(
            addresses={"slow-0": server.address}, timeout=0.3
        )
        try:
            proxy = net.proxy("client-1", "slow-0", lambda: None)
            with pytest.raises(RpcTimeout):
                proxy.nap(1.5)
            assert net.endpoint_stats()["slow-0"]["timeouts"] == 1
            # The timed-out socket was closed, a fresh call dials anew
            # and must not see the stale response.
            assert proxy.nap(0.01) == "rested"
        finally:
            net.close()

    def test_stopped_server_is_node_down(self, server):
        net = SocketTransport(
            addresses={"flash-0-0": server.address}, timeout=1.0
        )
        try:
            proxy = net.proxy("client-1", "flash-0-0", lambda: None)
            proxy.write(0, b"x", 0)
            server.stop()
            with pytest.raises(NodeDownError):
                proxy.read(0, 0)
        finally:
            net.close()

    def test_restart_on_same_port_reconnects(self, server):
        host, port = server.address
        net = SocketTransport(
            addresses={"flash-0-0": (host, port)}, timeout=2.0
        )
        try:
            proxy = net.proxy("client-1", "flash-0-0", lambda: None)
            proxy.write(0, b"before", 0)
            server.stop()
            replacement = NodeServer(host=host, port=port)
            replacement.register("flash-0-0", FlashUnit("flash-0-0"))
            replacement.start()
            try:
                # The pooled connection is dead. If the send itself
                # fails the transport redials transparently; if the
                # send was buffered before the reset, the call is
                # ambiguous and honestly reads as a timeout. Either
                # way the *next* call must reach the new process
                # (flash contents are fresh — restart, not recovery —
                # so the offset reads unwritten).
                try:
                    with pytest.raises(UnwrittenError):
                        proxy.read(0, 0)
                except RpcTimeout:
                    pass
                with pytest.raises(UnwrittenError):
                    proxy.read(0, 0)
                proxy.write(1, b"after", 0)
                assert proxy.read(1, 0) == b"after"
            finally:
                replacement.stop()
        finally:
            net.close()

    def test_deadline_uses_wall_clock(self, net):
        start = time.monotonic()
        with pytest.raises(NodeDownError):
            # Nothing listens on this port: refused connections resolve
            # quickly as node-down rather than burning the full deadline.
            net.set_address("dead-0", "127.0.0.1", 1)
            net.proxy("client-1", "dead-0", lambda: None).read(0, 0)
        assert time.monotonic() - start < 2.0


class TestServerLoop:
    def test_concurrent_clients_share_one_server(self, server):
        errors = []

        def hammer(worker):
            net = SocketTransport(
                addresses={"flash-0-0": server.address}, timeout=5.0
            )
            try:
                proxy = net.proxy(f"client-{worker}", "flash-0-0", lambda: None)
                base = worker * 100
                for i in range(25):
                    proxy.write(base + i, b"w%d" % worker, 0)
                for i in range(25):
                    assert proxy.read(base + i, 0) == b"w%d" % worker
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)
            finally:
                net.close()

        threads = [
            threading.Thread(target=hammer, args=(w,)) for w in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert errors == []

    def test_ping_reports_name_kind_pid(self, net):
        import os

        info = _storage(net).ping()
        assert info["name"] == "flash-0-0"
        assert info["kind"] == "FlashUnit"
        assert info["pid"] == os.getpid()  # in-process server thread

    def test_shutdown_rpc_stops_the_server(self, server, net):
        assert _storage(net).shutdown() is True
        assert server.wait(timeout=5.0)

    def test_garbage_frames_do_not_kill_the_server(self, server, net):
        import socket as socket_mod

        with socket_mod.create_connection(server.address, timeout=2.0) as raw:
            raw.sendall(b"\x05\x00\x00\x00nope!")
        # The poisoned connection is dropped; real clients are unharmed.
        assert _storage(net).is_written(0, 0) is False


class TestOversizedFrames:
    """A frame past ``MAX_FRAME_BYTES`` is the caller's error, not a
    timeout: no healthy connection is dropped and no timeout counted."""

    @pytest.fixture(autouse=True)
    def small_frames(self, monkeypatch):
        monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 2000)

    def test_oversized_reply_is_an_error_reply(self, net, server):
        proxy = _storage(net)
        for offset in range(3):
            proxy.write(offset, b"p" * 600, 0)
        with pytest.raises(ValueError, match="MAX_FRAME_BYTES"):
            proxy.read_many([0, 1, 2], 0)
        assert net.endpoint_stats()["flash-0-0"]["timeouts"] == 0
        # The server kept the connection and the client pooled it.
        assert proxy.read(2, 0) == b"p" * 600
        with server._conn_lock:
            assert len(server._conns) == 1

    def test_oversized_request_is_raised_before_sending(self, net):
        proxy = _storage(net)
        proxy.write(0, b"x", 0)
        (pooled,) = net._pools["flash-0-0"]
        with pytest.raises(ValueError, match="MAX_FRAME_BYTES"):
            proxy.write(1, b"y" * 3000, 0)
        assert net.endpoint_stats()["flash-0-0"]["timeouts"] == 0
        assert net._pools["flash-0-0"] == [pooled]
        assert proxy.is_written(1, 0) is False
        assert net._pools["flash-0-0"] == [pooled]

    def test_oversized_read_ejects_no_replica(self, server):
        from repro.proc.remote import RemoteCluster

        server.register("flash-0-1", FlashUnit("flash-0-1"))
        cluster = RemoteCluster(
            {n: server.address for n in ("flash-0-0", "flash-0-1", "seq-0")},
            num_sets=1,
            replication_factor=2,
        )
        try:
            client = cluster.client()
            for _ in range(3):
                client.append(b"p" * 600, (1,))
            with pytest.raises(ValueError, match="MAX_FRAME_BYTES"):
                client.read_many([0, 1, 2])
            projection = cluster.projection
            assert projection.epoch == 0
            assert projection.replica_sets[0].nodes == ("flash-0-0", "flash-0-1")
        finally:
            cluster.close()


class _ScriptedServer:
    """A listener that runs *script(server, conn)* on every connection
    it accepts, counting connections and the requests scripts record."""

    def __init__(self, script):
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.address = self.listener.getsockname()[:2]
        self.accepted = 0
        self.requests = []
        self.done = threading.Event()
        self._script = script
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self):
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            self.accepted += 1
            threading.Thread(
                target=self._script, args=(self, conn), daemon=True
            ).start()

    def close(self):
        self.listener.shutdown(socket.SHUT_RDWR)
        self.listener.close()


@pytest.fixture()
def scripted():
    servers = []

    def start(script, timeout=2.0):
        srv = _ScriptedServer(script)
        net = SocketTransport(addresses={"node": srv.address}, timeout=timeout)
        servers.append((srv, net))
        return srv, net, net.proxy("client-1", "node", lambda: None)

    yield start
    for srv, net in servers:
        net.close()
        srv.close()


def _serve_requests(srv, framed, limit=None):
    """Answer each request with its own id until EOF or *limit*."""
    served = 0
    while limit is None or served < limit:
        request = recv_frame(framed)
        if request is None:
            return
        srv.requests.append(request["op"])
        send_frame(framed, {"id": request["id"], "ok": request["op"]})
        served += 1


class TestCallPathScripted:
    def test_foreign_reply_is_discarded(self, scripted):
        def script(srv, conn):
            with FramedSocket(conn) as framed:
                request = recv_frame(framed)
                send_frame(framed, {"id": "stranger#1", "ok": "not yours"})
                send_frame(framed, {"id": request["id"], "ok": "yours"})
                _serve_requests(srv, framed)

        srv, net, proxy = scripted(script)
        assert proxy.anything() == "yours"
        # The exchange completed, so the connection was pooled and
        # serves the next call.
        assert proxy.again() == "again"
        assert srv.accepted == 1

    def test_only_foreign_replies_until_the_deadline_is_a_timeout(
        self, scripted
    ):
        def script(srv, conn):
            with FramedSocket(conn) as framed:
                recv_frame(framed)
                try:
                    while True:
                        send_frame(framed, {"id": "stranger#1", "ok": 0})
                        time.sleep(0.02)
                except OSError:
                    srv.done.set()  # the client closed the connection

        srv, net, proxy = scripted(script, timeout=0.3)
        with pytest.raises(RpcTimeout):
            proxy.anything()
        assert net.endpoint_stats()["node"]["timeouts"] == 1
        assert not net._pools.get("node")
        assert srv.done.wait(5.0)

    def test_stale_pooled_connection_is_redialed_once(self, scripted):
        def script(srv, conn):
            with FramedSocket(conn) as framed:
                if srv.accepted == 1:
                    # Serve one call, then reset the connection while
                    # the client holds it in its pool.
                    _serve_requests(srv, framed, limit=1)
                    conn.setsockopt(
                        socket.SOL_SOCKET,
                        socket.SO_LINGER,
                        struct.pack("ii", 1, 0),
                    )
                    return
                _serve_requests(srv, framed)

        srv, net, proxy = scripted(script)
        assert proxy.first() == "first"
        (pooled,) = net._pools["node"]
        # Wait until the reset has reached the pooled socket.
        assert select.select([pooled._sock], [], [], 5.0)[0]
        assert proxy.second() == "second"
        assert srv.accepted == 2
        assert srv.requests == ["first", "second"]
        assert net.endpoint_stats()["node"]["timeouts"] == 0
