"""Benchmark: the batched read path vs the per-offset path.

Demonstrates the win of read batching: after a cold sync over a
1,000-entry stream (the backpointer walk reads ~N/K entries), merged
playback fetches the rest in exact batches — the offsets the walk
discovered, one ``read_many`` per replica chain per window — and issues
a small fraction of the storage round trips of fetching each entry on
its own, over byte-identical stream contents. The RPC counts come from
the transport's per-endpoint delivery counters, so what is asserted is
exactly what a network would carry.
"""

import pytest

from repro.corfu import CorfuCluster
from repro.streams import StreamClient

N_ENTRIES = 1000


def _build_cluster() -> CorfuCluster:
    cluster = CorfuCluster(num_sets=2, replication_factor=2)
    writer = cluster.client()
    for i in range(N_ENTRIES):
        writer.append(b"entry-%04d" % i, (1,))
    return cluster


def _storage_rpcs(client, cluster) -> int:
    stats = client.net_stats()
    return sum(
        stats[n]["rpcs"]
        for n in cluster.projection.all_nodes()
        if n in stats
    )


def _synced():
    """A fresh client synced cold over the stream: (client, cluster)."""
    cluster = _build_cluster()
    sclient = StreamClient(cluster.client())
    sclient.open_stream(1)
    sclient.sync(1)
    return sclient, cluster


def _playback_rpcs(batched: bool):
    """Storage RPCs to play (or fetch one offset at a time) the synced
    stream, and the offsets delivered."""
    sclient, cluster = _synced()
    before = _storage_rpcs(sclient.corfu, cluster)
    if batched:
        delivered = [off for off, _entry, _ids in sclient.play((1,))]
    else:
        delivered = list(sclient.known_offsets(1))
        for off in delivered:
            sclient.fetch(off)
    return _storage_rpcs(sclient.corfu, cluster) - before, delivered, sclient


@pytest.mark.benchmark(group="batched-reads")
def test_batched_cold_sync_rpc_reduction(benchmark):
    """Playback after a cold sync: exact read_many batches vs per-offset."""
    per_offset_rpcs, plain, _ = _playback_rpcs(batched=False)
    batched_rpcs, delivered, batched = _playback_rpcs(batched=True)

    # Identical answers over identical contents...
    assert delivered == list(range(N_ENTRIES))
    assert len(plain) == N_ENTRIES
    # ...with >=4x fewer storage round trips (the expected ratio here
    # is ~750 : ~32: the walk already read one entry in K).
    assert per_offset_rpcs >= 4 * batched_rpcs

    # The savings are visible in the client's own counters too: every
    # entry the walk did not read travels in a batch.
    corfu = batched.corfu
    assert corfu.batched_reads > 0
    assert corfu.batched_read_offsets >= N_ENTRIES * 0.7

    print("\n=== Batched reads: playback of a cold-synced "
          f"{N_ENTRIES}-entry stream ===")
    print(f"{'path':>24} | {'storage RPCs':>12}")
    print("-" * 41)
    print(f"{'per-offset fetch':>24} | {per_offset_rpcs:>12}")
    print(f"{'play (read_many)':>24} | {batched_rpcs:>12}")
    print(f"{'reduction':>24} | {per_offset_rpcs / batched_rpcs:>11.1f}x")

    # Time the cold sync plus batched playback end to end.
    def cold_catchup():
        sclient, _cluster = _synced()
        return sum(1 for _ in sclient.play((1,)))

    result = benchmark.pedantic(cold_catchup, rounds=3, iterations=1)
    assert result == N_ENTRIES


@pytest.mark.benchmark(group="batched-reads")
def test_batched_playback_rpc_reduction(benchmark):
    """Full playback after sync: exact batches of the known offsets."""
    playback_rpcs, delivered, sclient = _playback_rpcs(batched=True)
    assert len(delivered) == N_ENTRIES
    # Playback batched everything the walk had not read: it is almost
    # RPC-free.
    assert playback_rpcs < N_ENTRIES / 4

    print(f"\nplayback of {len(delivered)} entries issued "
          f"{playback_rpcs} storage RPCs")

    def playback_pass():
        sclient.reset(1)
        n = 0
        while sclient.readnext(1) is not None:
            n += 1
        return n

    assert benchmark.pedantic(playback_pass, rounds=3, iterations=1) == N_ENTRIES


@pytest.mark.benchmark(group="batched-reads")
def test_append_batch_grant_reduction(benchmark):
    """append_batch reserves offsets with one sequencer grant per batch."""
    cluster = CorfuCluster(num_sets=2, replication_factor=2)
    client = cluster.client()
    seq = cluster.sequencer()
    batch = [b"payload-%02d" % i for i in range(16)]

    inc0 = seq.increments
    client.append_batch(batch, (1,))
    assert seq.increments - inc0 == 1
    assert seq.offsets_issued == 16

    def batched_append():
        return client.append_batch(batch, (1,))

    benchmark.pedantic(batched_append, rounds=5, iterations=1)
