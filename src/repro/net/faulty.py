"""A seedable fault-injecting transport.

Models the failure modes of a real RPC fabric over the in-process
deployment, deterministically (one ``random.Random(seed)`` drives every
draw, and "time" is a logical clock that ticks once per delivery
attempt, so a given seed and call sequence always produces the same
fault schedule):

- **request drop** — the call never reaches the node; the caller gets
  :class:`~repro.errors.RpcTimeout` and the server state is untouched.
- **response drop** — the node *executes* the call but the reply is
  lost; the caller gets ``RpcTimeout`` and must reason about the
  ambiguity (this is what burns sequencer offsets and duplicates chain
  writes).
- **duplicate delivery** — at-least-once delivery executes the call a
  second time; the second outcome is discarded (its errors included),
  exactly like a retransmitted datagram hitting an idempotence check.
- **reordering** — the request is delayed past the caller's timeout and
  delivered on a later tick, potentially *after* younger requests; a
  stale-epoch delayed delivery is rejected by the seal check, which is
  precisely why the seal exists.
- **partitions** — a named endpoint pair (client↔node, or node↔node)
  is unreachable until healed; every call times out immediately.

Latency is simulated, not slept: each delivery accrues a sampled
delay onto :attr:`FaultyTransport.simulated_latency_ms` so tests and
the performance model can read it without slowing the suite down.
"""

from __future__ import annotations

import random
import threading
from functools import partial
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.errors import ReproError, RpcTimeout
from repro.net.clock import LogicalClock
from repro.net.transport import LoopbackTransport

#: Rate knobs accepted by ``__init__`` and ``set_rates``.
_RATE_KNOBS = ("drop_request", "drop_response", "duplicate", "reorder")


class FaultyTransport(LoopbackTransport):
    """Deterministic, seedable network fault injection.

    Args:
        seed: seeds the single RNG behind every fault draw.
        drop_request: probability a request is lost before delivery.
        drop_response: probability a response is lost after execution.
        duplicate: probability a delivered call is executed twice.
        reorder: probability a request is deferred to a later tick.
        max_delay: maximum deferral, in logical-clock ticks.
        latency_ms: upper bound of the simulated per-call latency sample.
    """

    def __init__(
        self,
        seed: int = 0,
        drop_request: float = 0.0,
        drop_response: float = 0.0,
        duplicate: float = 0.0,
        reorder: float = 0.0,
        max_delay: int = 6,
        latency_ms: float = 0.0,
    ) -> None:
        # Fault schedules are phrased in logical ticks; the transport's
        # clock IS that tick counter (see repro.net.clock).
        super().__init__(clock=LogicalClock())
        self._rng = random.Random(seed)
        self.drop_request = drop_request
        self.drop_response = drop_response
        self.duplicate = duplicate
        self.reorder = reorder
        self.max_delay = max(1, max_delay)
        self.latency_ms = latency_ms
        self.simulated_latency_ms = 0.0
        self.backoffs = 0
        self._defer_seq = 0
        # (due_tick, sequence, target, thunk): delayed in-flight requests.
        self._deferred: List[Tuple[int, int, str, Callable[[], None]]] = []
        self._partitions: Set[FrozenSet[str]] = set()
        self._lock = threading.RLock()

    # -- fault configuration -------------------------------------------------

    def set_rates(self, **rates: float) -> None:
        """Adjust fault probabilities mid-run (unknown knobs rejected)."""
        for name, value in rates.items():
            if name not in _RATE_KNOBS:
                raise ValueError(f"unknown fault knob {name!r}")
            setattr(self, name, value)

    def partition(self, a: str, b: str) -> None:
        """Make the endpoint pair *a*↔*b* unreachable until healed."""
        with self._lock:
            self._partitions.add(frozenset((a, b)))

    def heal(self, a: Optional[str] = None, b: Optional[str] = None) -> None:
        """Heal one partition (both names given) or every partition."""
        with self._lock:
            if a is None and b is None:
                self._partitions.clear()
            elif a is not None and b is not None:
                self._partitions.discard(frozenset((a, b)))
            else:
                raise ValueError("heal() takes both endpoints or neither")

    def partitioned(self, a: str, b: str) -> bool:
        with self._lock:
            return frozenset((a, b)) in self._partitions

    @property
    def partitions(self) -> Tuple[FrozenSet[str], ...]:
        with self._lock:
            return tuple(sorted(self._partitions, key=sorted))

    def calm(self) -> None:
        """Disable every fault: zero rates, heal partitions, flush delays.

        Tests call this before final-state verification so the checks
        themselves run over a quiet network.
        """
        with self._lock:
            for knob in _RATE_KNOBS:
                setattr(self, knob, 0.0)
            self._partitions.clear()
            due = self._take_due_locked(everything=True)
        self._run(due)

    def deliver_delayed(self) -> int:
        """Deliver every deferred request now; returns how many."""
        with self._lock:
            due = self._take_due_locked(everything=True)
        return self._run(due)

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
        # Every fault draw and every change to the deferred queue
        # happens under the lock (one RNG, one deterministic schedule);
        # the lock is released for every delivery — the call's own, its
        # duplicate and the due deferred ones — and for the counter
        # bumps, so it is a leaf above the clock: concurrent callers
        # genuinely overlap their in-flight deliveries, exactly as on a
        # real fabric, and no server or stats lock is ever taken under
        # it. Per-call draw order is fixed (request faults before
        # execution, response faults after), so single-threaded seeded
        # fault schedules repeat.
        with self._lock:
            self.clock.advance()
            due = self._take_due_locked()
            if self.latency_ms:
                self.simulated_latency_ms += self._rng.uniform(0, self.latency_ms)
            if frozenset((source, target)) in self._partitions:
                lost = "partitioned"
            elif self.drop_request and self._rng.random() < self.drop_request:
                lost = "dropped"
            elif self.reorder and self._rng.random() < self.reorder:
                lost = "reordered"
                self._defer_locked(source, target, op, resolve, args, kwargs)
            else:
                lost = ""
        # Traffic that came due reaches its nodes before this call's own
        # delivery, whether or not this call is lost.
        self._run(due)
        stats = self.stats_for(target)
        if lost:
            if lost == "dropped":
                stats.note_drop()
            elif lost == "reordered":
                stats.note_reordered()
            stats.note_timeout()
            raise RpcTimeout(target, op)
        result = self.deliver(source, target, op, resolve, args, kwargs)
        # Post-execution faults apply only to calls the server
        # completed: a duplicate of a rejected request is a no-op, and
        # there is no response to lose.
        with self._lock:
            duplicate = self.duplicate and self._rng.random() < self.duplicate
            dropped = self.drop_response and self._rng.random() < self.drop_response
        if duplicate:
            stats.note_duplicate()
            try:
                self.deliver(source, target, op, resolve, args, kwargs)
            except ReproError:
                # The retransmission bounced off an idempotence check
                # (WrittenError, SealedError, ...) — exactly what those
                # checks are for. The original response is the one the
                # caller sees.
                pass
        if dropped:
            stats.note_drop()
            stats.note_timeout()
            raise RpcTimeout(target, op)
        return result

    def backoff(self, source: str, attempt: int) -> None:
        """Retry backoff: advance logical time so delayed traffic lands."""
        with self._lock:
            self.backoffs += 1
            self.clock.advance()
            due = self._take_due_locked()
        self._run(due)

    # -- deferred (reordered) traffic ---------------------------------------

    def _defer_locked(
        self,
        source: str,
        target: str,
        op: str,
        resolve: Callable[[], object],
        args: tuple,
        kwargs: dict,
    ) -> None:
        due = int(self.clock.now()) + self._rng.randint(1, self.max_delay)
        self._defer_seq += 1
        late = partial(self._deliver_late, source, target, op, resolve, args, kwargs)
        self._deferred.append((due, self._defer_seq, target, late))

    def _deliver_late(
        self,
        source: str,
        target: str,
        op: str,
        resolve: Callable[[], object],
        args: tuple,
        kwargs: dict,
    ) -> None:
        try:
            self.deliver(source, target, op, resolve, args, kwargs)
        except ReproError:
            # Late delivery bounced (sealed epoch, already-written
            # offset, node down). Nobody is waiting for the answer.
            return

    def _take_due_locked(self, everything: bool = False) -> List[Callable[[], None]]:
        """Remove the deferred requests due now from the queue; return
        their deliveries in (due tick, deferral) order, to be run after
        the lock is released."""
        if not self._deferred:
            return []
        now = int(self.clock.now())
        ready = [
            item
            for item in self._deferred
            if everything or item[0] <= now
        ]
        if ready:
            self._deferred = [i for i in self._deferred if i not in ready]
        return [item[3] for item in sorted(ready, key=lambda i: (i[0], i[1]))]

    @staticmethod
    def _run(due: List[Callable[[], None]]) -> int:
        for deliver in due:
            deliver()
        return len(due)
