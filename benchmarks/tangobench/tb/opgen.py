"""Seeded input generation.

The program under test sees only what these generators emit. Every
draw goes through one ``random.Random(seed)``, in an order that does
not depend on how fast the run goes or which backend it runs on, so
the same seed gives the same operation sequence everywhere; ``digest``
is the witness.
"""

from __future__ import annotations

import bisect
import hashlib
import random
import struct
from typing import List, Tuple

from tb.spec import FLIGHT, PAYLOAD_BYTES, STREAMS

_STAMP = struct.Struct("<QQ")
_FILL = bytes(range(256)) * 2


def payload(seed: int, seq: int) -> bytes:
    """256 bytes stamped with (seed, seq); the oracle re-derives them."""
    start = seq & 0xFF
    return _STAMP.pack(seed, seq) + _FILL[start : start + PAYLOAD_BYTES - _STAMP.size]


class Digest:
    """Order-sensitive hash of the first *limit* operation descriptors."""

    def __init__(self, limit: int = 512) -> None:
        self._hash = hashlib.blake2b(digest_size=8)
        self._left = limit

    def note(self, *fields: int) -> None:
        if self._left > 0:
            self._left -= 1
            self._hash.update(struct.pack(f"<{len(fields)}q", *fields))

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


class Zipf:
    """Zipf(theta) ranks over ``n`` items by inverse-CDF lookup."""

    def __init__(self, n: int, theta: float = 0.99) -> None:
        total = 0.0
        self._cdf: List[float] = []
        for rank in range(1, n + 1):
            total += 1.0 / rank**theta
            self._cdf.append(total)
        self._total = total

    def draw(self, rng: random.Random) -> int:
        return bisect.bisect_left(self._cdf, rng.random() * self._total)


class LogOps:
    """Descriptors for the raw-log cycle: 8 appends, 8 reads, a flight, a scan."""

    def __init__(self, seed: int, window: int) -> None:
        self.seed = seed
        self.window = window
        self.rng = random.Random(seed)
        self.seq = 0
        self.digest = Digest()

    def append(self) -> Tuple[int, int, bytes]:
        """(seq, stream id, payload) of the next single append."""
        seq = self.seq
        self.seq += 1
        sid = self.rng.randrange(STREAMS)
        self.digest.note(1, seq, sid)
        return seq, sid, payload(self.seed, seq)

    def flight(self) -> Tuple[int, int, List[bytes]]:
        """(first seq, stream id, payloads): one stream per flight, so
        the client may cover it with a single sequencer grant."""
        first = self.seq
        self.seq += FLIGHT
        sid = self.rng.randrange(STREAMS)
        self.digest.note(2, first, sid)
        return first, sid, [payload(self.seed, first + i) for i in range(FLIGHT)]

    def read_back(self, acked: int) -> int:
        """How far behind the newest acknowledged entry to read (0 = newest)."""
        back = self.rng.randrange(min(self.window, acked))
        self.digest.note(3, back)
        return back

    def scan_back(self, acked: int) -> List[int]:
        span = min(self.window, acked)
        backs = self.rng.sample(range(span), min(FLIGHT, span))
        self.digest.note(4, *backs)
        return backs
