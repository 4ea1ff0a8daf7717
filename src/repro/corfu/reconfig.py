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

import json
import math
from typing import Dict, Iterable, List, Optional

from repro.corfu.client import _MAX_RETRIES
from repro.corfu.cluster import CorfuCluster
from repro.corfu.layout import Projection, ReplicaSet
from repro.errors import NodeDownError, RpcTimeout, SealedError

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

#: Most addresses one recovery round asks of one replica set. The first
#: round reads one offset and each next round twice as many, up to this
#: many per set: a checkpoint near the tail costs a handful of pages,
#: and a long live suffix one ``read_many`` per 64 addresses per set.
_SCAN_BATCH = 64


def _storage_rpc(cluster: CorfuCluster, source: str, node: str):
    return cluster.transport.proxy(source, node, lambda: cluster.storage(node))


def _sequencer_rpc(cluster: CorfuCluster, source: str, node: str):
    return cluster.transport.proxy(source, node, lambda: cluster.sequencer(node))


def _ask(cluster: CorfuCluster, source: str, proxy, op: str, *args):
    """One RPC, retried through timeouts (each recorded as a retry, so
    ``net_stats()`` shows them); None if the node is down or stays
    silent for the whole budget — callers treat it like a dead one."""
    for attempt in range(_RPC_ATTEMPTS):
        try:
            return getattr(proxy, op)(*args)
        except NodeDownError:
            return None
        except RpcTimeout:
            cluster.transport.record_retry(proxy.target)
            cluster.transport.backoff(source, attempt)
    return None


def seal_cluster(
    cluster: CorfuCluster,
    old: Projection,
    new_epoch: int,
    source: str = _DEFAULT_SOURCE,
) -> None:
    """Seal every reachable node (storage + sequencer) of *old* at *new_epoch*.

    A node we cannot reach after the retry budget is treated exactly
    like a dead one: it cannot serve this partition's clients either
    way, and if it is alive-but-partitioned its chain peers are sealed,
    so any stale-epoch chain operation still fails to complete. A
    sharded sequencer group is sealed shard by shard; surviving shards
    keep their soft state across the epoch bump (sealing only fences
    stale-epoch requests, it clears nothing).
    """
    proxies = [_storage_rpc(cluster, source, name) for name in old.all_nodes()]
    proxies += [_sequencer_rpc(cluster, source, name) for name in old.sequencer_shards]
    for proxy in proxies:
        try:
            _ask(cluster, source, proxy, "seal", new_epoch)
        except SealedError:
            pass  # already sealed at this epoch or a later one


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
        local_tail = max(
            _ask(cluster, source, _storage_rpc(cluster, source, node), "local_tail") or 0
            for node in rset
        )
        if local_tail > 0:
            tail = max(tail, projection.global_offset(set_index, local_tail - 1) + 1)
    return tail


def _trim_mark(cluster: CorfuCluster, rset: ReplicaSet, source: str) -> Optional[int]:
    """The set's prefix-trim mark on its first reachable replica, tail
    first (where a read would meet "trimmed"); None if none answers."""
    for node in reversed(rset.nodes):
        status = _ask(cluster, source, _storage_rpc(cluster, source, node), "store_status")
        if status is not None:
            return status["trimmed_prefix"]
    return None


def _read_set(
    cluster: CorfuCluster, rset: ReplicaSet, addresses: List[int], epoch: int, source: str
) -> Dict[int, bytes]:
    """Pages of *addresses* held by any surviving replica, tail first.

    The tail of an un-ejected chain may be down while the head holds the
    data, so an address unwritten at one replica, or held by one that
    cannot be reached, is asked of the next toward the head. That may
    find an in-flight (head-only) write, which advisory backpointer
    state may safely reference: its winner completes the chain. Holes
    and trimmed pages are left out, and nothing is repaired.
    """
    pages: Dict[int, bytes] = {}
    for node in reversed(rset.nodes):
        if not addresses:
            break
        proxy = _storage_rpc(cluster, source, node)
        replies = _ask(cluster, source, proxy, "read_many", addresses, epoch)
        if replies is None:
            continue
        unwritten = []
        for address in addresses:
            status, data = replies[address]
            if status == "ok":
                pages[address] = data
            elif status == "unwritten":
                unwritten.append(address)
        addresses = unwritten
    return pages


def _pages_newest_first(
    cluster: CorfuCluster, projection: Projection, tail: int, epoch: int, source: str,
    shard_index: int, num_shards: int,
):
    """Yield ``(offset, raw)`` for a stripe's pages below *tail*, newest first,
    read in rounds (:data:`_SCAN_BATCH`) down to each set's trim mark."""
    n = len(projection.replica_sets)
    stripe_sets = n // math.gcd(n, num_shards)
    marks: Dict[int, int] = {}  # set index -> local prefix-trim mark
    floor = 0  # nothing live below this, once every stripe set's mark is in
    offset = tail - 1 - ((tail - 1 - shard_index) % num_shards)
    size = 1
    while offset >= floor:
        batch: Dict[int, List[int]] = {}
        taken = 0
        while offset >= floor and taken < size:
            set_index, address = offset % n, offset // n
            if set_index not in marks:
                mark = _trim_mark(cluster, projection.replica_sets[set_index], source)
                marks[set_index] = tail if mark is None else mark  # None: read nothing
                if len(marks) == stripe_sets:
                    floor = min(m * n + s for s, m in marks.items())
            if address >= marks[set_index]:
                batch.setdefault(set_index, []).append(address)
                taken += 1
            offset -= num_shards
        size = min(2 * size, _SCAN_BATCH * stripe_sets)
        pages: Dict[int, bytes] = {}
        for set_index, addresses in batch.items():
            rset = projection.replica_sets[set_index]
            for address, raw in _read_set(cluster, rset, addresses, epoch, source).items():
                pages[address * n + set_index] = raw
        for at in sorted(pages, reverse=True):
            yield at, pages[at]


def rebuild_stream_tails(
    cluster: CorfuCluster,
    projection: Projection,
    tail: int,
    k: int,
    epoch: int,
    source: str = _DEFAULT_SOURCE,
    shard_index: int = 0,
    num_shards: int = 1,
) -> Dict[int, List[int]]:
    """Reconstruct one sequencer's per-stream last-K map by backward scan.

    Scans the stripe the sequencer issues, offsets ``≡ shard_index (mod
    num_shards)`` below *tail* (an unsharded sequencer is stripe 0 of
    1), so recovering one shard reads ``1/N`` of the log. Three sources
    feed one candidate set per stream this sequencer owns (``sid %
    num_shards == shard_index``); each stream keeps its K newest:

    - stream headers of entries in the stripe (holes and junk carry none);
    - vector-grant **markers** (:func:`repro.corfu.entry.decode_vector_marker`):
      a cross-shard entry living in another stripe left one at the
      reservation it burned here, naming its final offset and streams;
    - a sequencer checkpoint (:func:`checkpoint_sequencer_state`): it
      holds the state as of its own offset, and everything newer was
      just scanned, so the scan stops there.
    """
    from repro.corfu.entry import LogEntry, decode_vector_marker

    candidates: Dict[int, set] = {}

    def note(sid: int, offset: int) -> None:
        if sid % num_shards == shard_index:
            candidates.setdefault(sid, set()).add(offset)

    for offset, raw in _pages_newest_first(
        cluster, projection, tail, epoch, source, shard_index, num_shards
    ):
        entry = LogEntry.decode(raw, offset, k)
        for header in entry.headers:
            note(header.stream_id, offset)
        if entry.is_junk:
            continue
        if entry.payload.startswith(_SEQ_CKPT_MAGIC):
            snapshot = json.loads(entry.payload[len(_SEQ_CKPT_MAGIC):])
            for sid_str, old_offsets in snapshot.items():
                for old in old_offsets:
                    if old < offset:
                        note(int(sid_str), old)
            break
        marker = None if entry.headers else decode_vector_marker(entry.payload)
        if marker is not None:
            final_offset, stream_ids = marker
            for sid in stream_ids:
                note(sid, final_offset)
    return {sid: sorted(offsets, reverse=True)[:k] for sid, offsets in candidates.items()}


def recover_sequencers(
    cluster: CorfuCluster,
    projection: Projection,
    shard_indexes: Iterable[int],
    source: str = _DEFAULT_SOURCE,
) -> bool:
    """Rebuild and bootstrap the sequencer shards *shard_indexes* of *projection*.

    The recovery step of every failover and of a durable open: one slow
    check, then per shard a backward scan of its stripe and a bootstrap
    at *projection*'s epoch with the global tail, so its next issue
    lands above everything granted so far. Returns False if a shard
    refused the bootstrap as stale: a racing reconfiguration moved past.
    """
    tail = slow_check_tail(cluster, projection, source=source)
    shards = projection.sequencer_shards
    for shard_index in shard_indexes:
        stream_tails = rebuild_stream_tails(
            cluster, projection, tail, cluster.k, projection.epoch, source,
            shard_index, len(shards),
        )
        if len(shards) > 1:
            cluster.create_sequencer(
                shards[shard_index], shard_index=shard_index, num_shards=len(shards)
            )
        sequencer = _sequencer_rpc(cluster, source, shards[shard_index])
        for attempt in range(_MAX_RETRIES):
            try:
                sequencer.bootstrap(tail, stream_tails, projection.epoch)
                break
            except SealedError:
                return False
            except RpcTimeout as exc:
                cluster.transport.record_retry(exc.node)
                cluster.transport.backoff(source, attempt)
                if attempt == _MAX_RETRIES - 1:
                    raise NodeDownError(exc.node)
    return True


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
    if cluster.projection.seq_shards:
        raise ValueError("sequencer is sharded; fail over one shard with replace_sequencer_shard()")
    return replace_sequencer_shard(cluster, 0, new_name, source=source)


def replace_sequencer_shard(
    cluster: CorfuCluster,
    shard_index: int,
    new_name: Optional[str] = None,
    source: str = _DEFAULT_SOURCE,
) -> Projection:
    """Fail over one sequencer shard, recovering its stripe's soft state.

    The seal-and-advance protocol of :func:`replace_sequencer`, scoped
    to one shard: the whole old epoch is sealed (healthy shards simply
    continue at the new one, soft state intact), and only the dead
    shard's map is rebuilt, from its own stripe, so the other shards
    never halt. The replacement joins the projection in its place.
    """
    old = cluster.projection
    if new_name is None:
        new_name = f"seq-{old.epoch + 1}" + (f".{shard_index}" if old.seq_shards else "")
    new = old.with_seq_shard(shard_index, new_name)
    seal_cluster(cluster, old, new.epoch, source=source)
    if not recover_sequencers(cluster, new, (shard_index,), source=source):
        # A racing reconfiguration moved past us; its projection
        # already carries recovered state.
        return cluster.projection
    try:
        cluster.install_projection(new)
    except ValueError:
        return cluster.projection
    return new


#: Stream id reserved for sequencer state checkpoints. Stream ids are
#: 31-bit and the upper half is infrastructure: Tango object ids stop at
#: ``(1 << 30) - 2``, ``(1 << 30) | oid`` is object ``oid``'s checkpoint
#: stream (``repro.tango.records.checkpoint_stream``), and this, the
#: last id, is the one id that neither range reaches.
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
