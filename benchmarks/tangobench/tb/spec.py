"""What tangobench measures: workloads, metric names and sizes.

``BENCHMARK.json`` at the repo root repeats the workload and metric
names (and alone fixes each end-to-end metric's regression bound);
``tests/test_spec.py`` keeps the two identical.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple

#: name -> why the workload exists (one line, also in BENCHMARK.json).
WORKLOADS: Dict[str, str] = {
    "log_inproc": (
        "raw shared log over LoopbackTransport: corfu.client/sequencer/"
        "replication/storage do all the work; net, store, streams, tango none"
    ),
    "log_wire": (
        "same seeded op sequence over real TCP to 5 node processes: net.wire/"
        "socket/server dominate, so log_wire minus log_inproc is the wire budget"
    ),
    "log_durable": (
        "same sequence on the segmented store (sync=False) with trim+compact "
        "every 4096 entries and a reopen: store is the marginal cost"
    ),
    "tango_mix": (
        "two runtimes share a 10k-key TangoMap, zipf 50% get/30% put/20% 3+3 tx "
        "plus a lagging reader: tango.runtime, streams, objects.map dominate"
    ),
    "tango_catchup": (
        "fresh runtimes replay a 12k+ entry, 4-map log (all maps, then 1 of 4 "
        "by backpointers) between write bursts: the read-only playback path"
    ),
}


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: True for counts that repeat exactly for a seed (checked by
    #: ``--check-repeat`` and the self-tests).
    exact: bool = False


#: The user-visible roles every workload fills; README.md maps each
#: role to the operation a workload runs for it.
END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower"),
    Metric("ops_per_s", "1/s", "higher"),
    Metric("write_p50_us", "us", "lower"),
    Metric("write_p99_us", "us", "lower"),
    Metric("read_p50_us", "us", "lower"),
    Metric("group_p50_us", "us", "lower"),
    Metric("group_p99_us", "us", "lower"),
    Metric("group_writes_per_s", "1/s", "higher"),
    Metric("scan_entries_per_s", "1/s", "higher"),
]


def _m(name: str, unit: str, better: str = "lower", exact: bool = False) -> Metric:
    return Metric(name, unit, better, exact)


#: Traced-pass metrics, layer = module name. 0 where a workload does
#: not run the layer.
PER_LAYER: List[Metric] = [
    _m("corfu.client.append_self_us", "us"),
    _m("corfu.client.read_self_us", "us"),
    _m("corfu.client.rpcs_per_append", "count", exact=True),
    _m("corfu.client.rpcs_per_read", "count", exact=True),
    _m("corfu.client.rpcs_per_flight_entry", "count", exact=True),
    _m("corfu.client.grants_per_flight_entry", "count", exact=True),
    _m("corfu.client.retries", "count", exact=True),
    _m("corfu.client.timeouts", "count", exact=True),
    _m("corfu.sequencer.increment_us", "us"),
    _m("corfu.sequencer.grants", "count", exact=True),
    _m("corfu.replication.write_us", "us"),
    _m("corfu.replication.write_pipelined_us_per_entry", "us"),
    _m("corfu.replication.read_us", "us"),
    _m("corfu.replication.read_many_us_per_entry", "us"),
    _m("corfu.replication.hop0_write_us", "us"),
    _m("corfu.replication.hop1_write_us", "us"),
    _m("corfu.replication.max_inflight", "count", "higher"),
    _m("corfu.storage.write_us", "us"),
    _m("corfu.storage.read_us", "us"),
    _m("corfu.storage.read_many_us_per_entry", "us"),
    _m("corfu.storage.writes_per_append", "count", exact=True),
    _m("net.wire.encode_us_per_frame", "us"),
    _m("net.wire.decode_us_per_frame", "us"),
    _m("net.wire.bytes_per_append", "count", exact=True),
    _m("net.socket.rtt_floor_us", "us"),
    _m("net.socket.call_us.increment", "us"),
    _m("net.socket.call_us.write", "us"),
    _m("net.socket.call_us.read", "us"),
    _m("net.socket.overhead_us", "us"),
    _m("net.server.cpu_us_per_op", "us"),
    _m("net.server.peak_rss_mb", "MB"),
    _m("proc.spawn_ready_s", "s"),
    _m("store.write_us", "us"),
    _m("store.bytes_per_user_byte", "ratio"),
    _m("store.compact_ms", "ms"),
    _m("store.reclaimed_frac", "ratio", "higher"),
    _m("store.segments_live", "count"),
    _m("store.reopen_ms", "ms"),
    _m("streams.append_self_us", "us"),
    _m("streams.sync_us", "us"),
    _m("streams.sync_rpcs", "count", exact=True),
    _m("streams.readnext_us", "us"),
    _m("streams.entries_per_fetch_rpc", "count", "higher", exact=True),
    _m("streams.selective_catchup_entries_per_s", "1/s", "higher"),
    _m("tango.runtime.update_self_us", "us"),
    _m("tango.runtime.query_self_us", "us"),
    _m("tango.runtime.end_tx_self_us", "us"),
    _m("tango.runtime.apply_us_per_entry", "us"),
    _m("tango.runtime.applied_per_op", "count", exact=True),
    _m("tango.runtime.commits", "count", "higher", exact=True),
    _m("tango.runtime.abort_frac", "ratio", exact=True),
    _m("objects.map.apply_us", "us"),
    _m("bench.ref_kernel_ms", "ms"),
    _m("bench.ref_spread", "ratio"),
    _m("bench.ref_jitter", "ratio"),
    _m("bench.raw_ops_per_s", "1/s", "higher"),
    _m("bench.raw_write_p50_us", "us"),
    _m("bench.raw_write_p99_us", "us"),
    _m("bench.raw_read_p50_us", "us"),
    _m("bench.raw_group_p50_us", "us"),
    _m("bench.raw_group_p99_us", "us"),
    _m("bench.trim_stall_ms", "ms"),
    _m("bench.driver_cpu_us_per_op", "us"),
    _m("bench.peak_rss_mb", "MB"),
    _m("bench.gc_unreachable", "count"),
    _m("bench.trace_overhead_frac", "ratio"),
    _m("bench.span_coverage_frac", "ratio", "higher"),
]

#: The reference kernel's duration "at nominal machine speed". Every
#: wall-time sample is scaled by NOMINAL_REF_US / (the kernel's duration
#: around the sample's block), so this constant only fixes the unit.
NOMINAL_REF_US = 120.0

#: A run is labelled ``noisy``, and its comparisons ``unresolved``, when
#: the two reference timings around a block typically disagree by more
#: than this share (``bench.ref_jitter``): the block's speed is then not
#: known well enough to correct for.
REF_JITTER_LIMIT = 0.15

#: Operations between two reference-kernel timings run for about this
#: long, so the kernel costs well under 15% of wall.
BLOCK_SECONDS = 0.015


class Sizes(NamedTuple):
    """Input sizes; ``--smoke`` shrinks them, nothing else does."""

    window: int = 4096  # live log window and trim period (entries)
    warm_cycles: int = 32
    mix_keys: int = 10_000
    catchup_entries: int = 12_000
    catchup_keys: int = 1_000  # per map
    burst_ops: int = 2_048
    lag_every: int = 512  # tango_mix: lagging reader syncs every N ops
    setups: int = 3  # set-ups per run; setup_s is their median
    #: ``#`` counts cover exactly this many leading operations (cycles
    #: for log_*, ops for tango_mix; tango_catchup: its first burst) of the
    #: traced segment, so they do not depend on how far a run got.
    count_cycles: int = 40
    count_ops: int = 2_000


FULL = Sizes()
SMOKE = Sizes(
    window=256, warm_cycles=4, mix_keys=400, catchup_entries=600,
    catchup_keys=100, burst_ops=64, lag_every=64, setups=1,
    count_cycles=4, count_ops=200,
)

PAYLOAD_BYTES = 256
STREAMS = 8
FLIGHT = 16
