"""The append path's exact RPC sequence, pinned.

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
"""

import hashlib

import pytest

from repro import CorfuCluster, StreamClient, TangoMap, TangoRuntime
from repro.net.faulty import FaultyTransport

#: sha256 of the whole record per sequencer shard count.
PINNED = {
    1: "f2351be8a9adc1bfaf3fc852f0626b0526abe6b5556345fa6533a7e9d24fdefc",
    2: "94d8fd79c7be3e34bd5a4b56871eec96be5287a5603385ae19ec249b7445bf72",
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


def _run(shards):
    transport = FaultyTransport(
        seed=11, drop_request=0.04, drop_response=0.04, duplicate=0.05, reorder=0.05
    )
    cluster = CorfuCluster(
        num_sets=2, replication_factor=2, seq_shards=shards, transport=transport
    )
    log = []
    _record(transport, log)

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


@pytest.mark.parametrize("shards", [1, 2])
def test_append_rpcs_match_the_pinned_trace(shards):
    log = _run(shards)
    assert any(line.startswith("call ") and "RpcTimeout" in line for line in log)
    digest = hashlib.sha256("\n".join(log).encode()).hexdigest()
    assert digest == PINNED[shards]
