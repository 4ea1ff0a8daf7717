"""The per-offset sequencer-recovery scanners, frozen.

Before recovery read the log in batched rounds that stop at the trim
horizon, a replacement sequencer rebuilt its per-stream last-K map by
reading one offset per RPC from ``tail - 1`` down to 0, trimmed offsets
included: ``rebuild_stream_tails`` for an unsharded sequencer (stopping
at a sequencer checkpoint) and ``rebuild_shard_stream_tails`` for one
shard's stripe (stream headers plus vector markers). Their bodies are
kept here as they were, so the tests check the batched scanner against
what recovery used to return. Nothing outside the tests imports this
module.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import (
    NodeDownError,
    RpcTimeout,
    TrimmedError,
    UnwrittenError,
)

_DEFAULT_SOURCE = "reconfig"
_RPC_ATTEMPTS = 8
_SEQ_CKPT_MAGIC = b"SEQCKPT1"


def _storage_rpc(cluster, source: str, node: str):
    return cluster.transport.proxy(source, node, lambda: cluster.storage(node))


def rebuild_stream_tails(
    cluster,
    projection,
    tail: int,
    k: int,
    epoch: int,
    source: str = _DEFAULT_SOURCE,
) -> Dict[int, List[int]]:
    """Reconstruct the sequencer's per-stream last-K map by backward scan."""
    import json

    from repro.corfu.entry import LogEntry

    stream_tails: Dict[int, List[int]] = {}
    for offset in range(tail - 1, -1, -1):
        rset, address = projection.map_offset(offset)
        raw = _read_any_replica(cluster, rset, address, epoch, source)
        if raw is None:
            continue
        entry = LogEntry.decode(raw, offset, k)
        for header in entry.headers:
            offsets = stream_tails.setdefault(header.stream_id, [])
            if len(offsets) < k:
                offsets.append(offset)
        if not entry.is_junk and entry.payload.startswith(_SEQ_CKPT_MAGIC):
            snapshot = json.loads(entry.payload[len(_SEQ_CKPT_MAGIC):])
            for sid_str, old_offsets in snapshot.items():
                sid = int(sid_str)
                merged = stream_tails.setdefault(sid, [])
                for old in old_offsets:
                    if len(merged) >= k:
                        break
                    if old < offset and old not in merged:
                        merged.append(old)
            break
    return stream_tails


def rebuild_shard_stream_tails(
    cluster,
    projection,
    tail: int,
    k: int,
    epoch: int,
    shard_index: int,
    num_shards: int,
    source: str = _DEFAULT_SOURCE,
) -> Dict[int, List[int]]:
    """Reconstruct one sequencer shard's per-stream map from its stripe."""
    from repro.corfu.entry import LogEntry, decode_vector_marker

    candidates: Dict[int, set] = {}

    def note(sid: int, offset: int) -> None:
        if sid % num_shards == shard_index:
            candidates.setdefault(sid, set()).add(offset)

    start = tail - 1 - ((tail - 1 - shard_index) % num_shards)
    for offset in range(start, -1, -num_shards) if start >= 0 else ():
        rset, address = projection.map_offset(offset)
        raw = _read_any_replica(cluster, rset, address, epoch, source)
        if raw is None:
            continue
        entry = LogEntry.decode(raw, offset, k)
        for header in entry.headers:
            note(header.stream_id, offset)
        if not entry.is_junk and not entry.headers:
            marker = decode_vector_marker(entry.payload)
            if marker is not None:
                final_offset, stream_ids = marker
                for sid in stream_ids:
                    note(sid, final_offset)
    return {
        sid: sorted(offsets, reverse=True)[:k]
        for sid, offsets in candidates.items()
    }


def _read_any_replica(
    cluster, rset, address: int, epoch: int, source: str = _DEFAULT_SOURCE
):
    """Read one page from any surviving replica, tail first."""
    for node in reversed(rset.nodes):
        proxy = _storage_rpc(cluster, source, node)
        for attempt in range(_RPC_ATTEMPTS):
            try:
                return proxy.read(address, epoch)
            except TrimmedError:
                return None
            except (UnwrittenError, NodeDownError):
                break
            except RpcTimeout:
                cluster.transport.backoff(source, attempt)
    return None
