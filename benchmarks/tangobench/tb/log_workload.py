"""log_inproc / log_wire / log_durable: the raw shared log.

One repeating cycle on every backend: 8 x ``append`` (write), 8 x
``read`` of a recent offset (read), one flight of 16 ``append_async``
all awaited (group), one ``read_many`` of 16 offsets (scan). Single and
batched, write and read forms of the same layer sit side by side, so
collapsing ``append``/``append_batch``/``append_async`` or
``read``/``read_many`` into one path cannot help one form at the
other's expense unseen.

Every ``window`` appended entries the driver trims the log down to its
last ``window`` entries and asks the nodes to compact. That keeps
memory (and on ``log_durable`` the disk) independent of how far a run
gets, and on ``log_durable`` it is the compaction load.

Oracle: every acknowledged append is read back exactly once at its
offset, just before it is trimmed or at the end, and must carry its
(seed, seq) stamp; offsets must be strictly increasing; timed reads and
scans are checked too; ``log_durable`` re-reads the live window after
closing and reopening the directory.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from tb import opgen
from tb.spans import Tracer
from tb.spec import FLIGHT, PAYLOAD_BYTES
from tb.workload import FAILED, Segment, Workload

_SWEEP_CHUNK = 64


class LogWorkload(Workload):
    #: Test hook: the oracle expects a flipped payload for this seq, so
    #: a healthy log must be reported as a failure.
    corrupt_seq: Optional[int] = None

    def setup(self) -> None:
        super().setup()
        self.client = self.backend.cluster.client()
        self.gen = opgen.LogOps(self.seed, self.sizes.window)
        #: live acknowledged entries as (offset, seq), oldest first.
        self.acked: List[Tuple[int, int]] = []
        self.swept = 0  # acked[:swept] have been read back
        self.max_offset = -1
        self.since_trim = 0
        self.trim_due = False
        self.reclaimed_bytes = 0
        self.reopen_ms = 0.0
        for _ in range(self.sizes.warm_cycles):
            self.cycle()
        self.seg = Segment()  # warm-up latencies are not measurements

    def digest(self) -> str:
        return self.gen.digest.hexdigest()

    def expected(self, seq: int) -> bytes:
        data = opgen.payload(self.seed, seq)
        if seq == self.corrupt_seq:
            data = data[:-1] + bytes([data[-1] ^ 0xFF])
        return data

    # -- the cycle -----------------------------------------------------------

    def cycle(self) -> None:
        if self.trim_due:
            self._trim()
        client, gen, acked, seg = self.client, self.gen, self.acked, self.seg
        for _ in range(8):
            seq, sid, data = gen.append()
            offset = self.timed("write", client.append, data, (sid,))
            if offset is not FAILED:
                self._ack(offset, seq)
                seg.ops_done += 1
        for _ in range(8):
            offset, seq = acked[-1 - gen.read_back(len(acked))]
            entry = self.timed("read", client.read, offset)
            if entry is not FAILED:
                seg.ops_done += 1
                if entry.payload != self.expected(seq):
                    self.fail(f"read of offset {offset} returned the wrong payload")
        first, sid, payloads = gen.flight()
        offsets = self.timed("group", self._flight, payloads, sid)
        if offsets is not FAILED:
            for i, offset in enumerate(offsets):
                self._ack(offset, first + i)
            seg.ops_done += FLIGHT
            seg.group_writes += FLIGHT
        wanted = [acked[-1 - back] for back in gen.scan_back(len(acked))]
        found = self.timed("scan", client.read_many, [o for o, _ in wanted])
        if found is not FAILED:
            seg.ops_done += len(wanted)
            seg.scan_entries += len(wanted)
            self._check_entries(found, wanted, "scan")

    def _flight(self, payloads: List[bytes], sid: int) -> List[int]:
        futures = [self.client.append_async(data, (sid,)) for data in payloads]
        return [future.result() for future in futures]

    def _ack(self, offset: int, seq: int) -> None:
        if offset <= self.max_offset:
            self.fail(f"append seq {seq} acknowledged at reused offset {offset}")
        self.max_offset = max(self.max_offset, offset)
        self.acked.append((offset, seq))
        self.since_trim += 1

    def _check_entries(self, found: Dict, wanted: List[Tuple[int, int]], what: str) -> None:
        for offset, seq in wanted:
            entry = found.get(offset)
            if getattr(entry, "payload", None) != self.expected(seq):
                self.fail(f"{what}: offset {offset} does not hold append seq {seq}: {entry!r}")

    # -- read-back sweeps and trimming ---------------------------------------

    def _sweep(self, upto: int) -> None:
        """Read back acked[swept:upto], each exactly once (untimed)."""
        while self.swept < upto:
            chunk = self.acked[self.swept : min(upto, self.swept + _SWEEP_CHUNK)]
            try:
                found = self.client.read_many([o for o, _ in chunk])
            except Exception as exc:  # noqa: BLE001 - counted, run continues
                found = {}
                print(f"tangobench: sweep read failed: {exc!r}", file=sys.stderr)
            self._check_entries(found, chunk, "read-back")
            self.swept += len(chunk)

    def between_blocks(self) -> None:
        if self.since_trim >= self.sizes.window and not self.trim_due:
            self._sweep(len(self.acked) - self.sizes.window)
            self.trim_due = True

    def _trim(self) -> None:
        """One trim + compact cycle, timed as the appender sees it."""
        cut = len(self.acked) - self.sizes.window
        self.trim_due = False
        self.since_trim = 0
        if cut <= 0 or self.swept < cut:
            return
        swept = self.timed("trim", self._trim_and_compact, self.acked[cut][0])
        if swept is not FAILED:
            self.reclaimed_bytes += sum(
                node.get("bytes_reclaimed", 0) for node in swept.values()
            )
        del self.acked[:cut]
        self.swept -= cut

    def _trim_and_compact(self, below: int) -> Dict:
        self.client.trim_prefix(below)
        return self.client.compact()

    def finish(self) -> None:
        stats = self.client.net_stats().values()
        self.retries = sum(s["retries"] for s in stats)
        self.timeouts = sum(s["timeouts"] for s in stats)
        self.max_inflight = self.backend.transport.inflight_stats()["max_inflight"]
        if self.backend.kind == "durable":
            t0 = perf_counter()
            self.client = self.backend.reopen().client()
            self.reopen_ms = (perf_counter() - t0) * 1e3
            self.swept = 0  # everything live must have survived the reopen
        self._sweep(len(self.acked))

    # -- per-layer metrics ---------------------------------------------------

    def layer_metrics(self, tracer: Tracer) -> Dict[str, float]:
        net = "net.socket" if self.backend.kind == "wire" else "net.transport"
        counted = tracer.ops_counted

        def per(kind: str, prefix: str, unit: int = 1) -> float:
            ops = counted.get(kind, 0) * unit
            return tracer.count(kind, prefix) / ops if ops else 0.0

        def per_entry(layer: str, name: str, kind: str) -> float:
            total, _ = tracer.dur_total(layer, name)
            entries = len(tracer.op_total.get(kind, ())) * FLIGHT
            return total / entries * 1e6 if entries else 0.0

        out = {
            "corfu.client.append_self_us": tracer.layer_self_p50_us("write", "corfu.client"),
            "corfu.client.read_self_us": tracer.layer_self_p50_us("read", "corfu.client"),
            "corfu.client.rpcs_per_append": per("write", "net."),
            "corfu.client.rpcs_per_read": per("read", "net."),
            "corfu.client.rpcs_per_flight_entry": per("group", "net.", FLIGHT),
            "corfu.client.grants_per_flight_entry": per(
                "group", f"{net}:sequencer.increment", FLIGHT
            ),
            "corfu.client.retries": self.retries,
            "corfu.client.timeouts": self.timeouts,
            "corfu.sequencer.increment_us": tracer.dur_p50_us("corfu.sequencer", "increment"),
            "corfu.sequencer.grants": sum(
                tracer.count(kind, f"{net}:sequencer.increment") for kind in counted
            ),
            "corfu.replication.write_us": tracer.dur_p50_us("corfu.replication", "write"),
            "corfu.replication.write_pipelined_us_per_entry": per_entry(
                "corfu.replication", "write_pipelined", "group"
            ),
            "corfu.replication.read_us": tracer.dur_p50_us("corfu.replication", "read"),
            "corfu.replication.read_many_us_per_entry": per_entry(
                "corfu.replication", "read_many", "scan"
            ),
            "corfu.replication.hop0_write_us": tracer.dur_p50_us(net, "storage.write.hop0"),
            "corfu.replication.hop1_write_us": tracer.dur_p50_us(net, "storage.write.hop1"),
            "corfu.replication.max_inflight": self.max_inflight,
            "corfu.storage.write_us": tracer.dur_p50_us("corfu.storage", "write"),
            "corfu.storage.read_us": tracer.dur_p50_us("corfu.storage", "read"),
            "corfu.storage.read_many_us_per_entry": per_entry(
                "corfu.storage", "read_many", "scan"
            ),
            "corfu.storage.writes_per_append": per("write", f"{net}:storage.write"),
            "bench.trim_stall_ms": self.seg.rec.quantile_us("trim", 0.5) / 1e3,
        }
        if self.backend.kind == "durable":
            out.update(self._store_metrics(tracer))
        return out

    def _store_metrics(self, tracer: Tracer) -> Dict[str, float]:
        status = self.client.store_status().values()
        disk = sum(node.get("disk_bytes", 0) for node in status)
        replicas = len(status) // len(self.backend.cluster.projection.replica_sets)
        live_user = len(self.acked) * PAYLOAD_BYTES * replicas
        whole = self.reclaimed_bytes + disk
        return {
            "store.write_us": tracer.dur_p50_us("store", "write"),
            "store.bytes_per_user_byte": disk / live_user if live_user else 0.0,
            "store.compact_ms": tracer.dur_p50_us("corfu.client", "compact") / 1e3,
            "store.reclaimed_frac": self.reclaimed_bytes / whole if whole else 0.0,
            "store.segments_live": sum(node.get("segments", 0) for node in status),
            "store.reopen_ms": self.reopen_ms,
        }


class LogInproc(LogWorkload):
    name = "log_inproc"
    backend_kind = "inproc"


class LogWire(LogWorkload):
    name = "log_wire"
    backend_kind = "wire"

    def codec_metrics(self, frames: List[Tuple[str, str, Dict]], appends: int) -> Dict[str, float]:
        """Replay the frames captured during the first *appends* counted
        appends (and their neighbours) through the codec, outside the run."""
        from repro.net.wire import decode_value, encode_frame, encode_value

        if not frames:
            return {}
        # Sizes leave the request id out: it grows with the number of RPCs
        # sent before, and the untimed read-back sweeps run on the clock.
        encoded = [
            (side, kind, encode_frame({**payload, "id": ""})) for side, kind, payload in frames
        ]
        # What the client pays per call: typed args -> tagged JSON -> frame
        # on the way out, frame body -> JSON -> typed value on the way back.
        calls = [
            (payload, decode_value(payload["args"]), decode_value(payload["kwargs"]))
            for side, _, payload in frames
            if side == "request"
        ]
        bodies = [raw[4:] for side, _, raw in encoded if side == "response"]
        t0 = perf_counter()
        for payload, args, kwargs in calls:
            encode_frame({**payload, "args": encode_value(args), "kwargs": encode_value(kwargs)})
        t1 = perf_counter()
        for body in bodies:
            reply = json.loads(body.decode("utf-8"))
            decode_value(reply.get("ok"))
        t2 = perf_counter()
        append_bytes = sum(len(raw) for _, kind, raw in encoded if kind == "write")
        return {
            "net.wire.encode_us_per_frame": (t1 - t0) / max(1, len(calls)) * 1e6,
            "net.wire.decode_us_per_frame": (t2 - t1) / max(1, len(bodies)) * 1e6,
            "net.wire.bytes_per_append": append_bytes / appends if appends else 0.0,
        }


class LogDurable(LogWorkload):
    name = "log_durable"
    backend_kind = "durable"
