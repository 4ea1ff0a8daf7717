"""Functional-layer experiments: section 6.3 and section 5 claims.

These run the *real* implementation (the in-process protocols), not the
performance model. Absolute throughput is Python-speed, so the paper
comparisons here are structural:

- section 6.3: transactions on independent TangoZK namespaces vs
  transactions that atomically move a file between namespaces (the
  paper reports ~200K/s vs ~20K/s — an order of magnitude); TangoBK
  ledger writes run at the speed of the underlying shared log.
- section 5: sequencer failover recovers tail + backpointer state (the
  paper replaces a failed sequencer within 10 ms on an 18-node
  deployment); the sequencer's soft state is 32 bytes per stream.
"""

from __future__ import annotations

import time
from typing import Dict, List

from repro.corfu import CorfuCluster, reconfig
from repro.objects.bookkeeper import TangoBK
from repro.objects.zookeeper import TangoZK
from repro.tango.directory import TangoDirectory
from repro.tango.runtime import TangoRuntime

Row = Dict[str, object]


def _build_runtimes(cluster: CorfuCluster, count: int):
    runtimes = [
        TangoRuntime(cluster, client_id=i + 1, name=f"client-{i}")
        for i in range(count)
    ]
    directories = [TangoDirectory(rt) for rt in runtimes]
    return runtimes, directories


def sec63_zookeeper(
    clients: int = 4, ops_per_client: int = 200, moves: int = 100
) -> List[Row]:
    """Independent-namespace ZK transactions vs cross-namespace moves.

    Each client owns one TangoZK namespace and creates znodes in it;
    then one client performs atomic file moves between two namespaces.
    The paper's claim is the order-of-magnitude gap and the fact that
    cross-namespace atomic moves exist at all ("The capability to move
    files across different instances does not exist in ZooKeeper").
    """
    cluster = CorfuCluster(num_sets=9, replication_factor=2)
    runtimes, directories = _build_runtimes(cluster, clients)
    namespaces = [
        directories[i].open(TangoZK, f"ns-{i}", session_id=f"s{i}")
        for i in range(clients)
    ]

    start = time.perf_counter()
    total_ops = 0
    for i, zk in enumerate(namespaces):
        zk.create("/files", b"")
        for n in range(ops_per_client):
            zk.create(f"/files/f{n}", b"data")
            total_ops += 1
    independent_elapsed = time.perf_counter() - start
    independent_rate = total_ops / independent_elapsed

    # Cross-namespace moves: the first client opens a view of the second
    # namespace and transactionally moves files into it.
    mover_rt = runtimes[0]
    src = namespaces[0]
    dst = directories[0].open(TangoZK, "ns-1", session_id="mover")
    dst_view = namespaces[1]

    start = time.perf_counter()
    done_moves = 0
    for n in range(min(moves, ops_per_client)):
        path = f"/files/f{n}"

        def move(path=path):
            data, _stat = src.get_data(path)
            src.delete(path)
            dst.create(f"/files/moved{done_moves}_{path.rsplit('/', 1)[1]}", data)

        mover_rt.run_transaction(move)
        done_moves += 1
    move_elapsed = time.perf_counter() - start
    move_rate = done_moves / move_elapsed

    # Verify atomicity effects are visible at the destination's owner.
    visible = sum(
        1
        for name in dst_view.get_children("/files")
        if name.startswith("moved")
    )
    return [
        {
            "metric": "independent-namespace creates/sec",
            "measured": round(independent_rate, 1),
            "paper": "~200K tx/s at 18 clients (C++)",
        },
        {
            "metric": "cross-namespace moves/sec",
            "measured": round(move_rate, 1),
            "paper": "~20K tx/s (an order of magnitude lower)",
        },
        {
            "metric": "independent/move rate ratio",
            "measured": round(independent_rate / move_rate, 2),
            "paper": "~10x",
        },
        {
            "metric": "moves visible at destination owner",
            "measured": visible,
            "paper": f"{done_moves} (full fidelity)",
        },
    ]


def sec63_bookkeeper(entries: int = 500, entry_bytes: int = 1024) -> List[Row]:
    """Ledger writes translate directly into stream appends.

    The paper generates "over 200K 4KB writes/sec using an 18-node
    shared log"; structurally, each add_entry is one append plus one
    sync, which is what we verify (the absolute rate is Python-speed).
    """
    cluster = CorfuCluster(num_sets=9, replication_factor=2)
    runtimes, directories = _build_runtimes(cluster, 1)
    bk = TangoBK(runtimes[0], directories[0])
    ledger = bk.create_ledger("bench-ledger")
    appends_before = runtimes[0].streams.corfu.appends

    payload = b"x" * entry_bytes
    start = time.perf_counter()
    for _ in range(entries):
        ledger.add_entry(payload)
    elapsed = time.perf_counter() - start
    appends_used = runtimes[0].streams.corfu.appends - appends_before

    return [
        {
            "metric": "ledger writes/sec (functional, Python)",
            "measured": round(entries / elapsed, 1),
            "paper": ">200K 4KB writes/s on the 18-node testbed (C++)",
        },
        {
            "metric": "log appends per ledger write",
            "measured": round(appends_used / entries, 2),
            "paper": "1 (writes translate directly into stream appends)",
        },
    ]


def _storage_rpcs(cluster: CorfuCluster) -> int:
    nodes = set(cluster.projection.all_nodes())
    return sum(s["rpcs"] for n, s in cluster.transport.endpoint_stats().items() if n in nodes)


def sec5_failover_vs_checkpoint(
    log_sizes=(100, 400, 1600), streams: int = 8
) -> List[Row]:
    """Failover cost with and without sequencer state checkpoints.

    The paper's stated plan ("having the sequencer store periodic
    checkpoints in the log") bounds the backward scan: without a
    checkpoint, recovery reads O(log length) entries; with one near the
    tail, O(1). ``scan_reads`` counts pages served, ``scan_rpcs`` every
    storage RPC of the failover (seals and slow check included).
    """
    rows: List[Row] = []
    for entries in log_sizes:
        for checkpointed in (False, True):
            cluster = CorfuCluster(num_sets=9, replication_factor=2)
            client = cluster.client()
            for i in range(entries):
                client.append(b"p%d" % i, stream_ids=(i % streams,))
            if checkpointed:
                reconfig.checkpoint_sequencer_state(cluster)
                client.append(b"after", stream_ids=(0,))
            cluster.crash_sequencer()
            reads_before = cluster.total_storage_reads()
            rpcs_before = _storage_rpcs(cluster)
            start = time.perf_counter()
            reconfig.replace_sequencer(cluster)
            elapsed_ms = (time.perf_counter() - start) * 1e3
            rows.append(
                {
                    "log_entries": entries,
                    "checkpointed": checkpointed,
                    "scan_reads": cluster.total_storage_reads() - reads_before,
                    "scan_rpcs": _storage_rpcs(cluster) - rpcs_before,
                    "failover_ms": round(elapsed_ms, 2),
                }
            )
    return rows


def sec5_sequencer_failover(
    entries: int = 400, streams: int = 8
) -> List[Row]:
    """Sequencer failover: seal, slow check, backpointer rebuild.

    The paper replaces a failed sequencer within 10 ms (18 nodes) and
    stores K=4 8-byte backpointers per stream (32 bytes/stream). We
    measure the functional failover end-to-end and verify the recovered
    state is exact.
    """
    cluster = CorfuCluster(num_sets=9, replication_factor=2)
    client = cluster.client()
    for i in range(entries):
        client.append(b"payload-%d" % i, stream_ids=(i % streams,))
    old_seq = cluster.sequencer(cluster.projection.sequencer)
    expected_tail, expected_streams = old_seq.query(tuple(range(streams)))

    cluster.crash_sequencer()
    start = time.perf_counter()
    new_projection = reconfig.replace_sequencer(cluster)
    elapsed_ms = (time.perf_counter() - start) * 1e3

    new_seq = cluster.sequencer(new_projection.sequencer)
    tail, recovered = new_seq.query(
        tuple(range(streams)), epoch=new_projection.epoch
    )
    exact = tail == expected_tail and all(
        tuple(recovered[s]) == tuple(expected_streams[s]) for s in range(streams)
    )
    return [
        {
            "metric": f"failover time, {entries} entries / {streams} streams (ms)",
            "measured": round(elapsed_ms, 2),
            "paper": "~10 ms on an 18-node deployment",
        },
        {
            "metric": "recovered state exact (tail + last-K per stream)",
            "measured": exact,
            "paper": "required for correctness",
        },
        {
            "metric": "sequencer soft state per stream (bytes)",
            "measured": new_seq.stream_state_bytes() // max(1, streams),
            "paper": "32 (K=4 x 8-byte offsets)",
        },
    ]
