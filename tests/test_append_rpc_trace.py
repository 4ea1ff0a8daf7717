"""The append and read paths' exact RPC sequences, pinned.

A seeded :class:`~repro.net.faulty.FaultyTransport` (request and
response drops, duplicates, reordering) runs a fixed mix through one
2×2 cluster, with one sequencer shard and with two: lone appends (one
stream, and two streams, which two shards grant as a vector), batches,
an ``append_async`` flight, ``TangoMap.put`` and a 3+3 commit. Every
RPC the client issues is recorded with its source, target, op,
arguments and outcome, and so is every delivery the transport executes
(duplicates and late reordered ones included), and a hole-filler
takes some granted offsets first. The records, the offsets each call
returned and the write-through cache slots are hashed, and the digests
are pinned: a change to the append routine must not change one RPC,
one byte or one cached entry.

The read scenario runs two runtimes sharing a map under the same fault
schedule through every shape of linearizable read: an idle get, a get
after its own put, after a remote put and after a remote 3+3 commit, a
get over offsets a hole-filler junked, a fresh four-map runtime
catching up and a lagging reader. Its record adds the values returned
and each view's applied ``(offset, oid, key)`` sequence, so a change to
the read path must not change one RPC, one result or one apply.
"""

import hashlib

import pytest

from repro import CorfuCluster, StreamClient, TangoMap, TangoRuntime
from repro.errors import RpcTimeout
from repro.net.faulty import FaultyTransport
from repro.tango.records import checkpoint_stream

#: sha256 of the whole record per sequencer shard count.
PINNED = {
    1: "f2351be8a9adc1bfaf3fc852f0626b0526abe6b5556345fa6533a7e9d24fdefc",
    2: "94d8fd79c7be3e34bd5a4b56871eec96be5287a5603385ae19ec249b7445bf72",
}


#: sha256 of the read scenario's record per sequencer shard count.
READ_PINNED = {
    1: "3839ff70744781a4797669b323572d754d16de0ffd3df0faea66639a7a7ec452",
    2: "47cb851d6e2444772a40253058eeb63fa467ae90bf30237accf88cec174ded9e",
}


#: sha256 of the hole scenario's record per sequencer shard count.
HOLE_PINNED = {
    1: "cd94b92255e93a5713afdfaffb3a551b2b76bd349c6bbfc5fab13de2589ca5fd",
    2: "9905eb3fb3bfe23796bacd3adc7c772ded8abc52fafa2879e2430848ceed00a0",
}


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # recorded, then re-raised
        return "raise", exc


def _record(transport, log):
    """Wrap *transport*'s ``call`` and ``deliver`` on the instance."""
    call, deliver = transport.call, transport.deliver

    def traced(kind, inner):
        def run(source, target, op, resolve, args, kwargs):
            status, value = _outcome(inner, source, target, op, resolve, args, kwargs)
            shown = f"{type(value).__name__}: {value}" if status == "raise" else repr(value)
            log.append(f"{kind} {source} {target} {op} {args!r} {sorted(kwargs.items())!r} {status} {shown}")
            if status == "raise":
                raise value
            return value

        return run

    transport.call = traced("call", call)
    transport.deliver = traced("deliver", deliver)


def _cache_slots(streams):
    return [
        f"{offset} {slot.entry!r} {slot.decoded!r}"
        for offset, slot in sorted(streams._cache.items())
    ]


def _faulty_cluster(shards, log):
    transport = FaultyTransport(
        seed=11, drop_request=0.04, drop_response=0.04, duplicate=0.05, reorder=0.05
    )
    cluster = CorfuCluster(
        num_sets=2, replication_factor=2, seq_shards=shards, transport=transport
    )
    _record(transport, log)
    return cluster


def _run(shards):
    log = []
    cluster = _faulty_cluster(shards, log)

    streams = StreamClient(cluster.client())
    for sid in (1, 2):
        streams.open_stream(sid)
    for i in range(12):
        sids = (1, 2) if i % 4 == 3 else (1 + i % 2,)
        log.append(f"append -> {streams.append(b'lone-%d' % i, sids)}")
    log.append(f"batch -> {streams.append_batch([b'b%d' % i for i in range(6)], (1,))}")
    # A hole-filler junks the next offsets first: those heads are lost.
    filler = cluster.client()
    tail = filler.check()
    for offset in range(tail, tail + 4):
        filler.fill(offset)
    log.append(f"batch -> {streams.append_batch([b'h%d' % i for i in range(3)], (1,))}")
    log.append(f"append -> {streams.append(b'after-fill', (2,))}")
    log.append(f"batch -> {streams.append_batch([b'v%d' % i for i in range(3)], (1, 2))}")
    flight = [streams.append_async(b'f%d' % i, (2,)) for i in range(8)]
    log.append(f"flight -> {[f.result() for f in flight]}")
    log.extend(_cache_slots(streams))

    runtime = TangoRuntime(cluster, client_id=7)
    tmap = TangoMap(runtime, 3)
    for i in range(6):
        tmap.put("k%d" % i, i)
    log.append(f"get -> {tmap.get('k5')}")
    runtime.begin_tx()
    for i in range(3):
        tmap.get("k%d" % i)
    for i in range(3):
        tmap.put("k%d" % i, 10 + i)
    log.append(f"commit -> {runtime.end_tx()}")
    log.append(f"get -> {tmap.get('k1')}")
    log.extend(_cache_slots(runtime.streams))
    return log


def _hosting(cluster, client_id, oids, applied):
    """A runtime hosting maps *oids*, its applies logged in *applied*."""
    runtime = TangoRuntime(cluster, client_id=client_id)
    runtime.subscribe(
        "apply", lambda ev: applied.append(f"{client_id} applied {ev['offset']} {ev['oid']} {ev['key']!r}")
    )
    return runtime, [TangoMap(runtime, oid) for oid in oids]


def _run_reads(shards):
    log = []
    cluster = _faulty_cluster(shards, log)
    applied = []
    a, (ma,) = _hosting(cluster, 7, (3,), applied)
    b, (mb, *others) = _hosting(cluster, 8, (3, 4, 5, 6), applied)
    _lagging, (lagging,) = _hosting(cluster, 9, (3,), applied)
    for i in range(8):
        mb.put(f"k{i}", i)
        others[i % 3].put(f"o{i}", i)
    log.append(f"first get -> {ma.get('k1')}")
    log.append(f"idle get -> {ma.get('k1')}")
    ma.put("k0", 100)
    log.append(f"own get -> {ma.get('k0')}")
    mb.put("k2", 200)
    log.append(f"remote get -> {ma.get('k2')}")
    b.begin_tx()
    for i in range(3):
        mb.get(f"k{i}")
    for i in range(3):
        mb.put(f"k{i + 3}", 300 + i)
    log.append(f"remote commit -> {b.end_tx()}")
    log.append(f"get after a remote commit -> {ma.get('k4')}")
    # A hole-filler junks the next offsets: the put's head writes lose
    # and its stream's last-K names the junk.
    filler = cluster.client()
    tail = filler.check()
    for offset in range(tail, tail + 3):
        filler.fill(offset)
    mb.put("k6", 600)
    log.append(f"get over junk -> {ma.get('k6')}")
    _fresh, maps = _hosting(cluster, 10, (3, 4, 5, 6), applied)
    log.append(f"fresh catch-up -> {[m.get('o1') for m in maps]} {maps[0].get('k6')}")
    log.append(f"lagging get -> {lagging.get('k6')}")
    log.extend(applied)
    return log


def _stall(writer, stream_id):
    """Grant *writer* one offset of *stream_id* that it never writes.

    A grant whose reply is lost is asked again, as an append would; the
    offset it burned is one more hole.
    """
    while True:
        try:
            first, _stride, _count, _prior = writer._grant(1, (stream_id,))
            return first
        except RpcTimeout:
            pass


def _logging_holes(runtime, label, log):
    """Log each hole *runtime*'s default handler fills, then fill it."""
    handler = runtime.streams._hole_handler

    def handle(offset):
        log.append(f"{label} fills {offset}")
        handler(offset)

    runtime.streams._hole_handler = handle
    return runtime


def _run_holes(shards):
    log = []
    cluster = _faulty_cluster(shards, log)
    applied = []
    a, (ma,) = _hosting(cluster, 7, (3,), applied)
    b, (mb,) = _hosting(cluster, 8, (3,), applied)
    for label, runtime in (("a", a), ("b", b)):
        _logging_holes(runtime, label, log)
    stalled = cluster.client()
    for i in range(3):
        mb.put(f"k{i}", i)
    log.append(f"first get -> {ma.get('k0')}")
    log.append(f"stalled at {_stall(stalled, 3)}")
    log.append(f"get of a lone hole -> {ma.get('k1')}")
    mb.put("k1", 10)
    log.append(f"stalled at {_stall(stalled, 3)}")
    mb.put("k2", 20)
    log.append(f"get of a window with a hole -> {ma.get('k2')}")
    log.append(f"checkpoint -> {b.checkpoint(3, mode='full')}")
    log.append(f"stalled at {_stall(stalled, checkpoint_stream(3))}")
    fresh = _logging_holes(TangoRuntime(cluster, client_id=10), "fresh", log)
    fresh.subscribe(
        "apply", lambda ev: applied.append(f"10 applied {ev['offset']} {ev['oid']} {ev['key']!r}")
    )
    log.append(f"get over a checkpoint hole -> {TangoMap(fresh, 3).get('k2')}")
    log.extend(applied)
    log.extend(_cache_slots(a.streams))
    log.extend(_cache_slots(fresh.streams))
    return log


@pytest.mark.parametrize("shards", [1, 2])
def test_hole_rpcs_match_the_pinned_trace(shards):
    log = _run_holes(shards)
    stalled = [line.split()[-1] for line in log if line.startswith("stalled at ")]
    filled = [line.split(" fills ") for line in log if " fills " in line]
    # Each stalled offset is filled once, by the reader that reaches it.
    assert [[who for who, off in filled if off == s] for s in stalled] == [["a"], ["a"], ["fresh"]]
    assert any(" read_many " in line for line in log)
    digest = hashlib.sha256("\n".join(log).encode()).hexdigest()
    assert digest == HOLE_PINNED[shards]


@pytest.mark.parametrize("shards", [1, 2])
def test_read_rpcs_match_the_pinned_trace(shards):
    log = _run_reads(shards)
    assert any(line.startswith("call ") and "RpcTimeout" in line for line in log)
    assert any(" read_many " in line for line in log)
    digest = hashlib.sha256("\n".join(log).encode()).hexdigest()
    assert digest == READ_PINNED[shards]


@pytest.mark.parametrize("shards", [1, 2])
def test_append_rpcs_match_the_pinned_trace(shards):
    log = _run(shards)
    assert any(line.startswith("call ") and "RpcTimeout" in line for line in log)
    digest = hashlib.sha256("\n".join(log).encode()).hexdigest()
    assert digest == PINNED[shards]
