"""Soak: disk and client memory stay bounded while the log grows 100x."""

import os
import tracemalloc

import pytest

from repro.corfu.durable import open_durable_cluster
from repro.errors import TrimmedError
from repro.objects import TangoMap
from repro.store import CompactionPolicy, SegmentedFlashUnit
from repro.tango.directory import TangoDirectory
from repro.tango.runtime import TangoRuntime
from tests.frozen_flat_log import FlatLogWriter


def _segment_files(data_dir):
    count = 0
    for entry in os.listdir(data_dir):
        store_dir = os.path.join(data_dir, entry)
        if entry.endswith(".store") and os.path.isdir(store_dir):
            count += sum(
                1 for n in os.listdir(store_dir) if n.endswith(".seg")
            )
    return count


@pytest.mark.slow
def test_soak_log_grows_100x_with_bounded_disk_and_memory(tmp_path):
    data_dir = str(tmp_path / "cluster")
    cluster = open_durable_cluster(
        data_dir,
        num_sets=2,
        replication_factor=2,
        segment_bytes=4096,
        sync=False,  # a soak is about space bounds, not fsync latency
        compaction_policy=CompactionPolicy(
            min_garbage_ratio=0.3, min_dead_bytes=256
        ),
    )
    rt = TangoRuntime(
        cluster, client_id=1, name="soak", memory_budget=256 * 1024
    )
    directory = TangoDirectory(rt)
    m = directory.open(TangoMap, "working-set")
    client = cluster.client()

    def one_round(i):
        for k in range(20):  # fixed-size working set, ever-churning values
            m.put(f"k{k}", i * 1000 + k)
        m.size()
        offset = rt.checkpoint_and_forget(m.oid, directory)
        rt.checkpoint_and_forget(directory.oid, directory)
        directory.gc()
        client.compact()
        return offset

    base_offset = max(one_round(0), 1)
    one_round(1)  # warm up eviction/compaction paths before measuring
    tracemalloc.start()
    warm_mem, _peak = tracemalloc.get_traced_memory()
    warm_files = _segment_files(data_dir)

    offset = base_offset
    rounds = 2
    while offset < 100 * base_offset:
        offset = one_round(rounds)
        rounds += 1

    final_mem, _peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    final_files = _segment_files(data_dir)

    # The log really grew two orders of magnitude...
    assert offset >= 100 * base_offset
    assert rounds > 50
    # ...while the segment-file population stayed flat-ish: bounded by
    # compaction, not by how much history ever existed. Uncompacted,
    # this run leaves hundreds of 4 KiB segments behind.
    assert final_files <= max(2 * warm_files, 24)
    # ...and client-side memory did not scale with log length either:
    # version eviction + the stream-cache byte budget keep the resident
    # set proportional to the working set, not to the offset space.
    assert final_mem <= warm_mem + 2 * 1024 * 1024
    # The view itself is still correct after all that churn.
    last = rounds - 1
    assert m.get("k7") == last * 1000 + 7
    # And history below the forget horizon is genuinely gone from disk.
    with pytest.raises(TrimmedError):
        client.read(0)


def test_flat_and_segmented_replay_identically(tmp_path):
    """A migrated flat log rebuilds exactly what its frames say."""
    flat = str(tmp_path / "unit.flash")
    with FlatLogWriter(flat) as writer:
        for addr in range(50):
            writer.write(addr, b"payload-%03d" % addr)
        writer.trim_prefix(10)
        writer.trim(17)
        writer.trim(23)
        writer.seal(2)
        writer.write(50, b"after-seal", epoch=2)
    written = {
        address: data
        for _op, _epoch, address, data in writer.frames
        if data
    }

    seg_unit = SegmentedFlashUnit(
        "u", str(tmp_path / "u.store"), migrate_flat=flat
    )
    assert seg_unit.epoch == 2
    for addr in range(51):
        if addr < 10 or addr in (17, 23):
            with pytest.raises(TrimmedError):
                seg_unit.read(addr, epoch=2)
        else:
            assert seg_unit.read(addr, epoch=2) == written[addr]
    assert seg_unit.written_addresses() == [
        a for a in range(10, 51) if a not in (17, 23)
    ]
    seg_unit.close()

    # The segmented copy still matches after its own reopen cycle.
    reopened = SegmentedFlashUnit("u", str(tmp_path / "u.store"))
    assert reopened.read(50, epoch=2) == b"after-seal"
    assert reopened.read(30, epoch=2) == b"payload-030"
    with pytest.raises(TrimmedError):
        reopened.read(5, epoch=2)
    reopened.close()
