"""Reconfiguration: seal-and-advance projection changes.

Paper section 5, "Failure Handling": "we modified reconfiguration in
CORFU to include the sequencer as a first-class member of the
'projection' or membership view. When the sequencer fails, the system is
reconfigured to a new view with a different sequencer, using the same
protocol used by CORFU to eject failed storage nodes. Any client
attempting to write to a storage node after obtaining an offset from the
old sequencer will receive an error message, forcing it to update its
view and switch to the new sequencer. ... Once a new sequencer comes up,
it has to reconstruct its backpointer state; in the current
implementation, this is done by scanning backward on the shared log."

The protocol is the standard CORFU seal-and-advance: (1) seal every
reachable node of the old projection at the new epoch, so no in-flight
operation from the old epoch can complete; (2) recover whatever soft
state the new configuration needs (the tail via the slow check, the
backpointer map via a backward scan); (3) install the new projection at
the auxiliary.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.corfu.client import _MAX_RETRIES
from repro.corfu.cluster import CorfuCluster
from repro.corfu.layout import Projection
from repro.errors import (
    NodeDownError,
    RpcTimeout,
    SealedError,
    TrimmedError,
    UnwrittenError,
)

#: Endpoint name used when no driving client is identified (e.g. the
#: durable-cluster bootstrap). Client-driven reconfiguration passes the
#: client's own endpoint name, so partitions apply to it faithfully.
_DEFAULT_SOURCE = "reconfig"

#: Per-node RPC attempts before reconfiguration gives a node up as
#: unreachable. Sealing must try hard: an unsealed reachable node could
#: keep serving stale-epoch requests. Bootstrapping a replacement
#: sequencer does not use this budget: the replacement was created a
#: moment ago, so it is alive, and ``bootstrap`` is idempotent per
#: epoch — it retries on the client's lossy-network budget
#: (``_MAX_RETRIES``), since eight timeouts in a row do happen under
#: the chaos suite's worst fault mix.
_RPC_ATTEMPTS = 8


def _storage_rpc(cluster: CorfuCluster, source: str, node: str):
    return cluster.transport.proxy(source, node, lambda: cluster.storage(node))


def _sequencer_rpc(cluster: CorfuCluster, source: str, node: str):
    return cluster.transport.proxy(source, node, lambda: cluster.sequencer(node))


def _seal_one(cluster: CorfuCluster, source: str, proxy, new_epoch: int) -> None:
    """Seal one node, retrying through timeouts; unreachable nodes pass.

    A node we cannot reach after the retry budget is treated exactly
    like a dead one: it cannot serve this partition's clients either
    way, and if it is alive-but-partitioned its chain peers are sealed,
    so any stale-epoch chain operation still fails to complete.
    """
    for attempt in range(_RPC_ATTEMPTS):
        try:
            proxy.seal(new_epoch)
            return
        except (NodeDownError, SealedError):
            return  # dead nodes can't serve stale requests anyway
        except RpcTimeout:
            cluster.transport.backoff(source, attempt)


def seal_cluster(
    cluster: CorfuCluster,
    old: Projection,
    new_epoch: int,
    source: str = _DEFAULT_SOURCE,
) -> None:
    """Seal every reachable node (storage + sequencer) of *old* at *new_epoch*.

    A sharded sequencer group is sealed shard by shard; surviving
    shards keep their soft state across the epoch bump (sealing only
    fences stale-epoch requests, it clears nothing).
    """
    for name in old.all_nodes():
        _seal_one(cluster, source, _storage_rpc(cluster, source, name), new_epoch)
    for name in old.sequencer_shards:
        _seal_one(
            cluster, source, _sequencer_rpc(cluster, source, name), new_epoch
        )


def eject_storage_node(
    cluster: CorfuCluster, node: str, source: str = _DEFAULT_SOURCE
) -> Projection:
    """Remove a failed storage node from its chain; returns the new projection.

    Idempotent under races: if another client already ejected the node,
    the install fails with a stale epoch and we simply return the
    current projection.
    """
    old = cluster.projection
    if node not in old.all_nodes():
        return old  # already ejected by someone else
    chain = next(rs for rs in old.replica_sets if node in rs.nodes)
    if len(chain.nodes) <= 1:
        # The last replica of a chain holds the only copy of its pages;
        # ejecting it would lose data. A trigger-happy failure detector
        # (e.g. a lossy network) must get the old projection back and
        # keep retrying against the suspect node instead.
        return old
    new = old.with_node_ejected(node)
    seal_cluster(cluster, old, new.epoch, source=source)
    try:
        cluster.install_projection(new)
    except ValueError:
        return cluster.projection
    return new


def slow_check_tail(
    cluster: CorfuCluster, projection: Projection, source: str = _DEFAULT_SOURCE
) -> int:
    """Recover the global tail from storage-node local tails.

    This is the slow check of section 2.2: query each replica set for
    its highest written local address and invert the mapping function.
    Persistently unreachable nodes are skipped — their chain peers hold
    the same tail.
    """
    tail = 0
    for set_index, rset in enumerate(projection.replica_sets):
        local_tail = 0
        for node in rset:
            proxy = _storage_rpc(cluster, source, node)
            for attempt in range(_RPC_ATTEMPTS):
                try:
                    local_tail = max(local_tail, proxy.local_tail())
                    break
                except NodeDownError:
                    break
                except RpcTimeout:
                    cluster.transport.backoff(source, attempt)
        if local_tail > 0:
            tail = max(
                tail, projection.global_offset(set_index, local_tail - 1) + 1
            )
    return tail


def rebuild_stream_tails(
    cluster: CorfuCluster,
    projection: Projection,
    tail: int,
    k: int,
    epoch: int,
    source: str = _DEFAULT_SOURCE,
) -> Dict[int, List[int]]:
    """Reconstruct the sequencer's per-stream last-K map by backward scan.

    Reads entries from ``tail - 1`` down to 0 and records, for each
    stream, the most recent K offsets it appears at. Holes and trimmed
    offsets are skipped; junk entries carry no stream headers and
    contribute nothing.

    If the scan meets a sequencer checkpoint entry (see
    :func:`checkpoint_sequencer_state`), it stops there: the checkpoint
    holds the state as of its own offset, and everything newer was just
    scanned. The snapshot's per-stream offsets fill whatever slots the
    scan has not already filled with newer ones.
    """
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
    cluster: CorfuCluster,
    projection: Projection,
    tail: int,
    k: int,
    epoch: int,
    shard_index: int,
    num_shards: int,
    source: str = _DEFAULT_SOURCE,
) -> Dict[int, List[int]]:
    """Reconstruct one sequencer shard's per-stream map from its stripe.

    Scans only offsets ``≡ shard_index (mod num_shards)`` below *tail*
    — the slice this shard issues — so recovering one crashed shard
    reads ``1/N`` of the log and never halts the other shards. Two
    sources feed the map, both restricted to streams this shard owns
    (``sid % num_shards == shard_index``):

    - stream headers of entries in the stripe (single-shard appends,
      and cross-shard entries whose final offset landed in this
      stripe);
    - vector-grant **markers** (see
      :func:`repro.corfu.entry.decode_vector_marker`): a cross-shard
      entry living in another stripe left a marker at the reservation
      it burned here, naming its final offset and this shard's streams.

    Marker-referenced offsets arrive out of scan order, so candidates
    are collected per stream and sorted newest-first at the end.
    """
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


def replace_sequencer_shard(
    cluster: CorfuCluster,
    shard_index: int,
    new_name: Optional[str] = None,
    source: str = _DEFAULT_SOURCE,
) -> Projection:
    """Fail over one sequencer shard, recovering its stripe's soft state.

    The seal-and-advance protocol of :func:`replace_sequencer`, scoped
    to one shard: the whole old epoch is sealed (healthy shards simply
    continue at the new one, soft state intact), the global tail is
    recovered with the slow check, the dead shard's per-stream map is
    rebuilt by a backward scan of **its own stripe only**, and the
    replacement — bootstrapped with the global tail, so its next issue
    lands above everything granted so far — joins the projection in the
    dead shard's place.
    """
    old = cluster.projection
    shards = old.sequencer_shards
    if not 0 <= shard_index < len(shards):
        raise ValueError(
            f"shard index {shard_index} out of range for {len(shards)} shards"
        )
    if len(shards) == 1:
        return replace_sequencer(cluster, new_name, source=source)
    if new_name is None:
        new_name = f"seq-{old.epoch + 1}.{shard_index}"
    new = old.with_seq_shard(shard_index, new_name)
    seal_cluster(cluster, old, new.epoch, source=source)
    tail = slow_check_tail(cluster, new, source=source)
    stream_tails = rebuild_shard_stream_tails(
        cluster,
        new,
        tail,
        cluster.k,
        new.epoch,
        shard_index,
        len(shards),
        source=source,
    )
    cluster.create_sequencer(
        new_name, shard_index=shard_index, num_shards=len(shards)
    )
    replacement = _sequencer_rpc(cluster, source, new_name)
    for attempt in range(_MAX_RETRIES):
        try:
            replacement.bootstrap(tail, stream_tails, new.epoch)
            break
        except SealedError:
            # A racing reconfiguration moved past us; its projection
            # already carries recovered state.
            return cluster.projection
        except RpcTimeout as exc:
            cluster.transport.backoff(source, attempt)
            if attempt == _MAX_RETRIES - 1:
                raise NodeDownError(exc.node)
    try:
        cluster.install_projection(new)
    except ValueError:
        return cluster.projection
    return new


#: Stream id reserved for sequencer state checkpoints. Stream ids are
#: 31-bit; Tango object ids in practice stay tiny, so the top of the
#: space is free for infrastructure streams.
SEQUENCER_CHECKPOINT_STREAM = (1 << 31) - 1

_SEQ_CKPT_MAGIC = b"SEQCKPT1"


def checkpoint_sequencer_state(cluster: CorfuCluster) -> int:
    """Store the sequencer's backpointer map in the log; returns its offset.

    Implements the optimization section 5 leaves as future work: "we
    plan on expediting this by having the sequencer store periodic
    checkpoints in the log." A later failover scans backward only to the
    newest checkpoint instead of to the beginning of the log.

    Ordering matters: the checkpoint's offset C is reserved *first*,
    then the state is snapshotted. Every reservation issued before ours
    is in the snapshot; every one issued after has an offset above C and
    is covered by the recovery scan. Nothing can fall between.
    """
    import json

    from repro.corfu.entry import encode_append
    from repro.corfu.replication import ChainReplicator

    proj = cluster.projection
    if proj.seq_shards:
        raise ValueError(
            "sequencer checkpoints are not supported for sharded groups; "
            "per-shard recovery scans only 1/N of the log already"
        )
    # The increment and the snapshot read are sequencer-local (the
    # sequencer checkpoints its own soft state); only the chain write
    # that persists the snapshot crosses the network, with the
    # sequencer itself as the writing endpoint.
    seq = cluster.sequencer(proj.sequencer)
    offset, backpointers = seq.increment(
        (SEQUENCER_CHECKPOINT_STREAM,), epoch=proj.epoch
    )
    snapshot = {
        str(sid): list(offsets)
        for sid, offsets in seq._stream_tails.items()  # noqa: SLF001
    }
    payload = _SEQ_CKPT_MAGIC + json.dumps(snapshot).encode("utf-8")
    raw, _ = encode_append(
        offset, (SEQUENCER_CHECKPOINT_STREAM,), backpointers, payload, cluster.k
    )
    rset, address = proj.map_offset(offset)
    chain = ChainReplicator(
        lambda node: _storage_rpc(cluster, proj.sequencer, node)
    )
    chain.write(rset, address, raw, proj.epoch)
    return offset


def _read_any_replica(
    cluster, rset, address: int, epoch: int, source: str = _DEFAULT_SOURCE
):
    """Read one page from any surviving replica, tail first.

    Recovery must tolerate replicas that crashed without having been
    ejected from the projection yet: the tail may be down while the
    head still holds the data. Reading towards the head may observe an
    in-flight (head-only) write — acceptable here, since the winner of
    that offset will complete the chain, and advisory backpointer state
    may safely reference it. Returns None for holes, trimmed pages, or
    fully unreachable chains (the scan skips the offset). Timeouts are
    retried per replica before that replica is given up as unreachable
    — a dropped recovery read must not silently shrink stream state.
    """
    for node in reversed(rset.nodes):
        proxy = _storage_rpc(cluster, source, node)
        for attempt in range(_RPC_ATTEMPTS):
            try:
                return proxy.read(address, epoch)
            except TrimmedError:
                return None
            except (UnwrittenError, NodeDownError):
                # A tail-unwritten page may still be an in-flight write
                # held at an upstream replica; walk towards the head.
                break
            except RpcTimeout:
                cluster.transport.backoff(source, attempt)
    return None


def replace_sequencer(
    cluster: CorfuCluster,
    new_name: Optional[str] = None,
    source: str = _DEFAULT_SOURCE,
) -> Projection:
    """Fail over to a new sequencer, recovering its soft state.

    Steps: seal the old epoch everywhere, recover the tail with the slow
    check, rebuild the backpointer map by scanning backward, bootstrap
    the replacement, and install the new projection.
    """
    old = cluster.projection
    if old.seq_shards:
        raise ValueError(
            "sequencer is sharded; fail over one shard with "
            "replace_sequencer_shard()"
        )
    if new_name is None:
        new_name = f"seq-{old.epoch + 1}"
    new = old.with_sequencer(new_name)
    seal_cluster(cluster, old, new.epoch, source=source)
    tail = slow_check_tail(cluster, new, source=source)
    stream_tails = rebuild_stream_tails(
        cluster, new, tail, cluster.k, new.epoch, source=source
    )
    replacement = _sequencer_rpc(cluster, source, new_name)
    for attempt in range(_MAX_RETRIES):
        try:
            replacement.bootstrap(tail, stream_tails, new.epoch)
            break
        except SealedError:
            # A racing reconfiguration moved past us; its projection
            # already carries recovered state.
            return cluster.projection
        except RpcTimeout as exc:
            cluster.transport.backoff(source, attempt)
            if attempt == _MAX_RETRIES - 1:
                raise NodeDownError(exc.node)
    try:
        cluster.install_projection(new)
    except ValueError:
        return cluster.projection
    return new
