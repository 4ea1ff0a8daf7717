"""Streams: selective playback of subsequences of the shared log.

"A stream provides a readnext interface over the address space of the
shared log, allowing clients to selectively learn or consume the
subsequence of updates that concern them while skipping over those that
do not" (paper section 1). Streams are the mechanism behind layered
partitioning: each Tango object lives on its own stream, and a client
only plays the streams of the objects it hosts.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:  # pragma: no cover - the typed surface
    from repro.streams.stream import StreamClient

__all__ = ["StreamClient"]
__getattr__, __dir__ = _lazy_exports(globals(), {"repro.streams.stream": ("StreamClient",)})
