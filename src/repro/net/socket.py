"""SocketTransport: the ``call(...)`` contract over real TCP.

Drop-in replacement for :class:`~repro.net.transport.LoopbackTransport`
when nodes live in other processes: the client-side API is identical
(``call(source, target, op, resolve, args, kwargs)``), but delivery is
a framed request/response exchange with a server loop
(:mod:`repro.net.server`). The ``resolve`` argument is ignored — over
a wire there is no live object to resolve; the node *name* is the
address (see :meth:`set_address`).

Reliability model, mirroring what :class:`FaultyTransport` simulates:

- **wall-clock deadlines** — every call gets ``timeout`` seconds of
  monotonic wall time (:class:`~repro.net.clock.MonotonicClock`)
  covering dialing, sending, and the response; overrunning raises
  :class:`~repro.errors.RpcTimeout`, the same ambiguous signal a
  dropped response produces under fault injection.
- **request ids** — every request carries a fresh id and the server
  echoes it. A connection that timed out is *closed*, never reused, so
  a late response can never be mistaken for the answer to a newer
  request; the id check is defense in depth. Exactly-once effects
  remain the client protocol's job (``maybe_mine``, write-once,
  sealing), exactly as under loopback — the transport only guarantees
  it never misattributes a response.
- **connection pooling + reconnect with backoff** — completed calls
  park their connection (bounded per target); dial failures retry on
  the standard exponential backoff schedule until the deadline. A
  refused connection means no listener: after two quick refusals the
  transport raises :class:`~repro.errors.NodeDownError` (a crashed
  process is *down*, not slow — this is what makes SIGKILL failover
  fast), tunable via ``refused_as_down``.
- **send-side retry safety** — a send failure on a *pooled* connection
  (stale socket the server closed) retries once on a fresh dial: the
  request provably never executed. After a successful send nothing is
  ever retransmitted by the transport; ambiguity is surfaced as
  ``RpcTimeout`` for the client protocol to resolve.

Concurrency: the address map and connection pool have their own locks;
all socket I/O, dialing, and closing happen *outside* them. Request
ids come from an ``itertools.count`` (``next`` on it is atomic under the
interpreter lock; no lock of ours). Per-endpoint stats share
:class:`~repro.net.transport.EndpointStats` with every other transport,
so ``net_stats()`` dashboards read identically against a wire.
"""

from __future__ import annotations

import itertools
import socket
import threading
from contextlib import suppress
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import NodeDownError, RpcTimeout
from repro.net.clock import Clock, MonotonicClock
from repro.net.transport import Transport
from repro.net.wire import (
    _SCALARS,
    FramedSocket,
    decode_error,
    decode_value,
    encode_value,
    recv_frame,
    send_frame,
)

#: Floor on per-socket-operation timeouts, so a nearly-expired deadline
#: still makes one attempt instead of passing 0 (= non-blocking).
_MIN_IO_TIMEOUT = 0.01


class SocketTransport(Transport):
    """Deliver RPCs to named nodes over TCP with framed JSON messages."""

    def __init__(
        self,
        addresses: Optional[Dict[str, Tuple[str, int]]] = None,
        timeout: float = 2.0,
        clock: Optional[Clock] = None,
        refused_as_down: bool = True,
        pool_size: int = 2,
    ) -> None:
        super().__init__(clock=clock if clock is not None else MonotonicClock())
        self.timeout = timeout
        self.refused_as_down = refused_as_down
        self.pool_size = max(1, pool_size)
        self._addresses: Dict[str, Tuple[str, int]] = dict(addresses or {})
        self._addr_lock = threading.Lock()
        self._pools: Dict[str, List[FramedSocket]] = {}
        self._pool_lock = threading.Lock()
        self._pool_closed = False
        self._ids = itertools.count(1)

    # -- addressing ----------------------------------------------------------

    def set_address(self, name: str, host: str, port: int) -> None:
        """Map node *name* to ``host:port`` (replaces any prior mapping)."""
        with self._addr_lock:
            self._addresses[name] = (host, port)

    def addresses(self) -> Dict[str, Tuple[str, int]]:
        """Snapshot of the name → address map."""
        with self._addr_lock:
            return dict(self._addresses)

    def _address_of(self, target: str) -> Tuple[str, int]:
        with self._addr_lock:
            addr = self._addresses.get(target)
        if addr is None:
            # An unmapped node cannot be dialed: indistinguishable from
            # a node that was never deployed.
            raise NodeDownError(target)
        return addr

    # -- delivery ------------------------------------------------------------

    def call(
        self,
        source: str,
        target: str,
        op: str,
        resolve: Callable[[], object],
        args: tuple,
        kwargs: dict,
    ):
        addr = self._address_of(target)
        stats = self.stats_for(target)
        deadline = self.clock.now() + self.timeout
        request_id = f"{source}#{next(self._ids)}"
        request = {
            "id": request_id,
            "source": source,
            "target": target,
            "op": op,
            "args": encode_value(list(args)),
            "kwargs": encode_value(kwargs) if kwargs else {},
        }

        conn, pooled = self._checkout(target)
        while True:
            if conn is None:
                conn = self._dial(target, addr, deadline, op)
            try:
                send_frame(self._armed(conn, deadline), request)
                break
            except ValueError:
                # Too large to frame: the caller's error, raised before
                # a byte was written, so the connection stays healthy.
                self._checkin(target, conn)
                raise
            except OSError:
                self._discard(conn)
                if not pooled:
                    stats.note_timeout()
                    raise RpcTimeout(target, op) from None
            # A parked connection the server has since closed: the
            # request never left, so one fresh dial is retry-safe.
            conn, pooled = None, False

        try:
            while True:
                response = recv_frame(self._armed(conn, deadline))
                if response is None:
                    raise ConnectionError("server closed the connection")
                if response.get("id") == request_id:
                    break
                # A frame for some other request id: stale leftovers on
                # a connection we should not trust. Keep reading until
                # our id or the deadline.
        except socket.timeout:
            # Deadline expired with the peer still connected: slow node
            # or lost response. Close the socket (any late response
            # dies with it) and let the client protocol resolve the
            # ambiguity.
            self._discard(conn)
            stats.note_timeout()
            raise RpcTimeout(target, op) from None
        except (OSError, ValueError):
            # The connection *died* (EOF/reset) rather than timing out:
            # probe liveness with a fresh dial so a crashed process
            # surfaces as NodeDownError now instead of after a streak
            # of timeouts. A successful probe is parked for reuse and
            # the original ambiguity still reads as a timeout.
            self._discard(conn)
            try:
                probe = self._dial(target, addr, deadline, op)
            except NodeDownError:
                raise NodeDownError(target) from None
            self._checkin(target, probe)
            stats.note_timeout()
            raise RpcTimeout(target, op) from None

        self._checkin(target, conn)
        stats.note_delivery(op, args)
        err = response.get("err")
        if err is not None:
            raise decode_error(err)
        ok = response.get("ok")
        return ok if type(ok) in _SCALARS else decode_value(ok)

    # -- connection management ----------------------------------------------

    def _armed(self, conn: FramedSocket, deadline: float) -> FramedSocket:
        """Set the socket timeout to the remaining deadline budget."""
        remaining = deadline - self.clock.now()
        if remaining <= 0:
            raise socket.timeout("rpc deadline exhausted")
        conn.settimeout(max(_MIN_IO_TIMEOUT, remaining))
        return conn

    def _dial(
        self,
        target: str,
        addr: Tuple[str, int],
        deadline: float,
        op: str,
    ) -> FramedSocket:
        refused = 0
        attempt = 0
        while True:
            budget = deadline - self.clock.now()
            if budget <= 0:
                self.stats_for(target).note_timeout()
                raise RpcTimeout(target, op)
            try:
                conn = socket.create_connection(
                    addr, timeout=max(_MIN_IO_TIMEOUT, budget)
                )
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                return FramedSocket(conn)
            except ConnectionRefusedError:
                refused += 1
                if self.refused_as_down and refused >= 2:
                    raise NodeDownError(target) from None
            except OSError:
                pass
            self.clock.backoff(attempt)
            attempt += 1

    def _checkout(
        self, target: str
    ) -> Tuple[Optional[FramedSocket], bool]:
        with self._pool_lock:
            pool = self._pools.get(target)
            if pool:
                return pool.pop(), True
        return None, False

    def _checkin(self, target: str, conn: FramedSocket) -> None:
        with self._pool_lock:
            if not self._pool_closed:
                pool = self._pools.setdefault(target, [])
                if len(pool) < self.pool_size:
                    pool.append(conn)
                    return
        self._discard(conn)

    def _discard(self, conn: FramedSocket) -> None:
        with suppress(OSError):
            conn.close()

    def close(self) -> None:
        """Close every pooled connection (later calls dial fresh sockets)."""
        with self._pool_lock:
            self._pool_closed = True
            conns = [c for pool in self._pools.values() for c in pool]
            self._pools.clear()
        for conn in conns:
            self._discard(conn)

    def __enter__(self) -> "SocketTransport":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
