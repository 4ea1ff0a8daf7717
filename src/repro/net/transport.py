"""Transport base machinery: proxies, per-endpoint stats, loopback.

A transport delivers *calls*: ``call(source, target, op, resolve,
args, kwargs)`` where *source* names the calling endpoint (a client,
or the reconfiguration driver acting for one), *target* names the node,
*op* is the RPC method name, and *resolve* is a zero-argument callable
returning the live server object (so delivery — not proxy creation —
observes node liveness, exactly like a real connection attempt).

Clients never hold server objects directly; they hold
:class:`RpcProxy` handles obtained from the transport. Every attribute
access on a proxy names an RPC and forwards through ``Transport.call``
when invoked; the only local state a proxy exposes is its own endpoint
metadata (:attr:`RpcProxy.source` / :attr:`RpcProxy.target`). Reaching
through a proxy to a server attribute is a hard error — it cannot work
across a process boundary, and allowing it under loopback hid exactly
that dependency.

Transports also own their notion of *time* (:mod:`repro.net.clock`):
the default :class:`~repro.net.clock.LogicalClock` ticks once per
backoff so simulated fault schedules stay deterministic, while the
socket transport plugs in a
:class:`~repro.net.clock.MonotonicClock` so deadlines and retry
backoff use real wall time.

In-process delivery is one routine, :meth:`LoopbackTransport.deliver`
(the loopback's ``call``; the faulty transport runs its main, duplicate
and reordered deliveries through it): count the call, enter the
in-flight gauge, resolve the server object and run *op* on it.

Concurrency: a transport is shared by every client thread, so counter
bumps are locked: each :class:`EndpointStats` owns a lock (all bumps go
through ``note_*``; TL010 enforces this), and ``_stats_lock`` guards
endpoint creation against snapshots, and the in-flight high-water mark.
A delivery to a known endpoint takes only that endpoint's lock: the map
is add-only, so a hit is a lock-free ``dict.get``, and the gauge is the
length of a list each delivery appends to and pops from. Single int
reads (the failure detector's ``stats.rpcs``) are atomic under the GIL.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional

from repro.net.clock import Clock, LogicalClock


class EndpointStats:
    """Per-node RPC counters, kept by the transport.

    ``rpcs`` counts deliveries handed to the node, one per execution (a
    duplicate or a late reordered delivery counts again; a dropped or
    partitioned call does not); ``retries`` counts client-side retry
    decisions against this node; ``timeouts`` counts
    :class:`~repro.errors.RpcTimeout` raised to callers; ``duplicates``
    counts extra at-least-once deliveries; ``drops`` counts lost
    requests/responses; ``reordered`` counts deliveries deferred past
    their issue order. ``batch_rpcs`` / ``batch_offsets`` count
    delivered *batched* reads (``read_many``) and the offsets they
    carried. The in-flight gauge is transport-wide
    (:meth:`Transport.inflight_stats`).
    """

    __slots__ = (
        "rpcs", "retries", "timeouts", "duplicates", "drops", "reordered",
        "batch_rpcs", "batch_offsets", "_lock",
    )

    def __init__(self) -> None:
        self.rpcs = 0
        self.retries = 0
        self.timeouts = 0
        self.duplicates = 0
        self.drops = 0
        self.reordered = 0
        self.batch_rpcs = 0
        self.batch_offsets = 0
        self._lock = threading.Lock()

    def note_delivery(self, op: str, args: tuple) -> None:
        """Record one delivered call (the server executed it)."""
        with self._lock:
            self.rpcs += 1
            if op == "read_many" and args:
                self.batch_rpcs += 1
                try:
                    self.batch_offsets += len(args[0])
                except TypeError:  # pragma: no cover - malformed batch arg
                    pass

    def note_retry(self) -> None:
        with self._lock:
            self.retries += 1

    def note_timeout(self) -> None:
        with self._lock:
            self.timeouts += 1

    def note_drop(self) -> None:
        with self._lock:
            self.drops += 1

    def note_duplicate(self) -> None:
        with self._lock:
            self.duplicates += 1

    def note_reordered(self) -> None:
        with self._lock:
            self.reordered += 1

    def to_dict(self) -> Dict[str, int]:
        """Consistent snapshot (taken under the counter lock)."""
        with self._lock:
            return {
                "rpcs": self.rpcs,
                "retries": self.retries,
                "timeouts": self.timeouts,
                "duplicates": self.duplicates,
                "drops": self.drops,
                "reordered": self.reordered,
                "batch_rpcs": self.batch_rpcs,
                "batch_offsets": self.batch_offsets,
            }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<EndpointStats {self.to_dict()}>"


class RpcProxy:
    """A client's handle on one remote node.

    Every public attribute access names an RPC: the returned callable
    forwards through ``Transport.call`` when invoked, without touching
    the server object first (delivery — not attribute lookup — is what
    observes liveness, exactly like a real connection). The proxy's
    own local metadata is explicit: :attr:`source` and :attr:`target`
    name the endpoints. There is no attribute reach-through — asking a
    proxy for server state is answered with an error at call time, not
    a loopback-only shortcut.
    """

    # ``__dict__`` caches the per-op stubs built by __getattr__.
    __slots__ = ("_transport", "_source", "_target", "_resolve", "__dict__")

    def __init__(
        self,
        transport: "Transport",
        source: str,
        target: str,
        resolve: Callable[[], object],
    ) -> None:
        self._transport = transport
        self._source = source
        self._target = target
        self._resolve = resolve

    @property
    def source(self) -> str:
        """Local metadata: the calling endpoint's name."""
        return self._source

    @property
    def target(self) -> str:
        """Local metadata: the node this proxy addresses."""
        return self._target

    def __getattr__(self, op: str):
        if op.startswith("_"):
            # Private/dunder lookups (copy, pickle, introspection) are
            # never RPCs; refusing them here keeps tooling honest.
            raise AttributeError(op)
        transport = self._transport
        source, target, resolve = self._source, self._target, self._resolve

        def rpc(*args, **kwargs):
            # ``transport.call`` is looked up per call, not bound here:
            # an instance-level replacement (a tracer wrapping delivery)
            # must see calls through stubs built before it.
            return transport.call(source, target, op, resolve, args, kwargs)

        rpc.__name__ = op
        # Built once: later lookups of *op* find it in the instance dict
        # and never reach __getattr__ again. Two threads racing the
        # first lookup build equivalent stubs; either one may stay.
        self.__dict__[op] = rpc
        return rpc

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RpcProxy {self._source}->{self._target}>"


class Transport:
    """Base class: endpoint stats plus the delivery interface.

    Each transport owns a :class:`~repro.net.clock.Clock`. In-process
    transports default to a :class:`~repro.net.clock.LogicalClock`
    (deterministic ticks), the socket transport plugs in a
    :class:`~repro.net.clock.MonotonicClock` (wall deadlines, real
    sleeps). Client retry code only ever calls :meth:`backoff`, so it
    is agnostic to which one is installed.
    """

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self._stats: Dict[str, EndpointStats] = {}
        # Guards the endpoint map itself (entry creation vs snapshot
        # iteration) and the in-flight high-water mark; each
        # EndpointStats guards its own counters.
        self._stats_lock = threading.Lock()
        # The in-flight gauge: one element per delivery executing now.
        self._gauge: List[str] = []
        self._max_inflight = 0
        self.clock: Clock = clock if clock is not None else LogicalClock()

    # -- delivery (subclass responsibility) ---------------------------------

    def call(
        self,
        source: str,
        target: str,
        op: str,
        resolve: Callable[[], object],
        args: tuple,
        kwargs: dict,
    ):
        raise NotImplementedError

    def backoff(self, source: str, attempt: int) -> None:
        """Client-side retry backoff hook.

        Delegates to the transport clock: logical clocks tick once
        (deterministic), wall clocks sleep the standard exponential
        schedule. Subclasses may layer extra work on top (the faulty
        transport flushes deferred deliveries here).
        """
        self.clock.backoff(attempt)

    # -- proxies ------------------------------------------------------------

    def proxy(
        self, source: str, target: str, resolve: Callable[[], object]
    ) -> RpcProxy:
        """A *source*-side handle on node *target*."""
        return RpcProxy(self, source, target, resolve)

    # -- observability ------------------------------------------------------

    def inflight_stats(self) -> Dict[str, int]:
        """Deliveries executing now, transport-wide (duplicates and late
        reordered ones included), and the most ever at once."""
        with self._stats_lock:
            return {
                "inflight": len(self._gauge),
                "max_inflight": self._max_inflight,
            }

    def stats_for(self, target: str) -> EndpointStats:
        # Hot path, once per delivery: a known endpoint is returned
        # without the lock. The map is add-only and a dict lookup is
        # atomic under the GIL, so the read sees either no entry (and
        # falls through to the locked create) or the one entry that will
        # ever exist for *target*.
        stats = self._stats.get(target)  # tangolint: disable=TL010
        if stats is not None:
            return stats
        with self._stats_lock:
            stats = self._stats.get(target)
            if stats is None:
                stats = EndpointStats()
                self._stats[target] = stats
            return stats

    def record_retry(self, target: str) -> None:
        """Clients report each retry decision so operators can see them."""
        self.stats_for(target).note_retry()

    def endpoint_stats(self) -> Dict[str, Dict[str, int]]:
        """Snapshot of per-endpoint counters (fresh dicts, safe to mutate)."""
        with self._stats_lock:
            targets = sorted(self._stats.items())
        return {target: stats.to_dict() for target, stats in targets}


class LoopbackTransport(Transport):
    """Direct in-process delivery: no faults, no copies, no delay.

    This is the default transport and preserves the pre-``repro.net``
    semantics exactly: every RPC is one Python method call on the live
    server object.
    """

    def deliver(
        self,
        source: str,
        target: str,
        op: str,
        resolve: Callable[[], object],
        args: tuple,
        kwargs: dict,
    ):
        """The in-process delivery routine: count, gauge, execute.

        A non-callable attribute is a protocol violation, not metadata:
        over a real wire there is no object to reach into.
        """
        # The lock-free endpoint hit of stats_for, inlined.
        stats = self._stats.get(target)  # tangolint: disable=TL010
        (stats or self.stats_for(target)).note_delivery(op, args)
        gauge = self._gauge
        gauge.append(op)
        try:
            depth = len(gauge)
            # Unlocked: a rise is re-checked under the lock, so the
            # mark only ever grows to a depth some delivery saw.
            if depth > self._max_inflight:  # tangolint: disable=TL010
                with self._stats_lock:
                    if depth > self._max_inflight:
                        self._max_inflight = depth
            method = getattr(resolve(), op)
            if not callable(method):
                raise TypeError(
                    f"rpc '{op}' to {target} names a non-callable server "
                    f"attribute; attribute reach-through across the "
                    f"transport is not supported (hold local metadata on "
                    f"the client, or add a real RPC)"
                )
            return method(*args, **kwargs)
        finally:
            gauge.pop()

    call = deliver
