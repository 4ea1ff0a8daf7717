"""Durable CORFU clusters: every storage node persists to disk.

The in-memory :class:`~repro.corfu.storage.FlashUnit` simulates an SSD
for a single process's lifetime; :func:`open_durable_cluster` swaps
each node for a :class:`~repro.store.SegmentedFlashUnit`, so a CORFU
deployment — and therefore every Tango object on it — survives process
restarts, not just node crashes.
"""

from __future__ import annotations

import os


def open_durable_cluster(data_dir: str, **kwargs):
    """A :class:`~repro.corfu.cluster.CorfuCluster` backed by *data_dir*.

    Each storage node persists to a segment-store directory
    ``<data_dir>/<node-name>.store`` (see :func:`repro.store.open_node_unit`);
    a legacy flat file ``<data_dir>/<node-name>.flash`` is migrated into
    it on first open and renamed to ``.flash.migrated``.

    Extra storage knobs (all optional): ``segment_bytes`` (roll size),
    ``sync`` (fsync before each write call returns — one per page, or
    per segment a ``write_many`` batch touches — default True),
    ``compaction_policy`` (a
    :class:`~repro.store.compactor.CompactionPolicy`).

    Reopening the same directory reconstructs the whole log — Tango
    clients then rebuild their views from it as usual. The sequencer is
    soft state: every shard is rebuilt from the log before this returns,
    by the same slow check and backward scan as a failover.
    """
    from repro.corfu import reconfig
    from repro.corfu.cluster import CorfuCluster
    from repro.store import open_node_unit

    segment_bytes = kwargs.pop("segment_bytes", None)
    sync = kwargs.pop("sync", True)
    compaction_policy = kwargs.pop("compaction_policy", None)
    os.makedirs(data_dir, exist_ok=True)
    cluster = CorfuCluster(**kwargs)
    for name in list(cluster._units):  # noqa: SLF001 - factory wiring
        cluster._units[name] = open_node_unit(
            data_dir,
            name,
            segment_bytes=segment_bytes,
            sync=sync,
            policy=compaction_policy,
        )
    projection = cluster.projection
    reconfig.recover_sequencers(
        cluster, projection, range(projection.num_seq_shards)
    )
    return cluster
