"""Pluggable time sources for transports.

The retry/failure-detector path (``CorfuClient._recover``,
``Transport.backoff``) was written against :class:`FaultyTransport`'s
*logical* clock: "time" advanced one tick per delivery attempt, and
"backing off" meant letting deferred traffic land. A socket transport
needs the opposite — deadlines measured in monotonic wall time and
backoff that actually sleeps — while the sim/chaos suites must keep
their deterministic schedule. The transport therefore owns a
:class:`Clock` and never touches ``time`` directly:

- :class:`LogicalClock` counts ticks. ``sleep`` advances one tick no
  matter the requested duration, so seeded fault schedules stay
  reproducible run to run.
- :class:`MonotonicClock` reads ``time.monotonic`` and really sleeps.
  It is the only place in the library that reads a wall clock, and it
  is never on a replay path (transports deliver RPCs; they do not
  apply log entries).

``backoff_delay`` is the shared retry schedule: deterministic
exponential growth from 5 ms, capped at 0.25 s. An operation that
exhausts the client's 64-attempt budget against a dead deployment
therefore backs off for about 0.3 + 58 × 0.25 ≈ 15 s of wall time on a
:class:`MonotonicClock`.
"""

from __future__ import annotations

import threading
import time


def backoff_delay(attempt: int, base: float = 0.005, cap: float = 0.25) -> float:
    """Deterministic exponential backoff: ``min(cap, base * 2**attempt)``."""
    if attempt < 0:
        return 0.0
    return min(cap, base * (2 ** min(attempt, 16)))


class Clock:
    """Time-source interface consumed by transports."""

    def now(self) -> float:
        """Current time (seconds for wall clocks, ticks for logical ones)."""
        raise NotImplementedError

    def sleep(self, seconds: float) -> None:
        """Pause the caller for *seconds* (logical clocks just tick)."""
        raise NotImplementedError

    def backoff(self, attempt: int) -> None:
        """Pause for the standard retry-backoff schedule."""
        self.sleep(backoff_delay(attempt))


class LogicalClock(Clock):
    """A deterministic tick counter: the sim/chaos notion of time.

    One instance is shared by a transport and everything it defers;
    ticks advance only when the transport says so (one per delivery
    attempt or backoff), which is what makes seeded fault schedules
    reproducible.
    """

    def __init__(self) -> None:
        self._ticks = 0
        self._lock = threading.Lock()

    def now(self) -> float:
        with self._lock:
            return float(self._ticks)

    def advance(self, ticks: int = 1) -> int:
        """Move logical time forward; returns the new tick count."""
        with self._lock:
            self._ticks += ticks
            return self._ticks

    def sleep(self, seconds: float) -> None:
        # Duration is meaningless in tick-time; sleeping is one tick.
        self.advance()


class MonotonicClock(Clock):
    """Monotonic wall time: what socket deadlines and real backoff use."""

    def now(self) -> float:
        # Transport deadlines are I/O bookkeeping, never replayed state.
        return time.monotonic()  # tangolint: disable=TL003

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)
