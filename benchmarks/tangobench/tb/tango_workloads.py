"""tango_mix and tango_catchup: Tango objects over an in-process log.

Both drive ``TangoMap`` through ``TangoRuntime`` on a ``CorfuCluster``
(LoopbackTransport), so the log underneath is a minority share and
``tango.runtime``, ``streams`` and ``objects.map`` carry the cost.

The oracle is a model of the log in the order the one driver thread
appended to it (:class:`TangoModel`): it predicts every linearizable
``get``, every transaction's commit/abort under the runtime's optimistic
concurrency control, and the final contents of every view.
"""

from __future__ import annotations

import gc
import random
from typing import Dict, List, Sequence, Tuple

from repro.objects import TangoMap
from repro.tango.runtime import TangoRuntime

from tb.opgen import Digest, Zipf
from tb.spans import Tracer
from tb.workload import FAILED, Segment, Workload

Key = Tuple[int, str]  # (object id, map key)


class TangoModel:
    """What the log holds, in append order, and who has played how far.

    A runtime's view lags the log until it syncs (an accessor outside a
    transaction, or ``end_tx``). A read-write transaction aborts iff
    some key it read was written after its runtime last synced and
    before its commit record - including by the runtime's own
    not-yet-played mutators.
    """

    def __init__(self) -> None:
        self.entries = 0  # log entries appended so far
        self.per_object: Dict[int, int] = {}  # entries on each object's stream
        self.state: Dict[int, Dict[str, int]] = {}
        self.last_write: Dict[Key, int] = {}
        self.synced: Dict[str, int] = {}  # runtime name -> entries played
        self.commits = 0
        self.aborts = 0

    def _append(self, oids: Sequence[int]) -> int:
        self.entries += 1
        for oid in set(oids):
            self.per_object[oid] = self.per_object.get(oid, 0) + 1
        return self.entries

    def put(self, oid: int, key: str, value: int) -> None:
        at = self._append((oid,))
        self.state.setdefault(oid, {})[key] = value
        self.last_write[(oid, key)] = at

    def sync(self, runtime: str) -> int:
        """Runtime plays to the tail; returns how many entries that was."""
        played = self.entries - self.synced.get(runtime, 0)
        self.synced[runtime] = self.entries
        return played

    def get(self, runtime: str, oid: int, key: str):
        self.sync(runtime)
        return self.state.get(oid, {}).get(key)

    def transaction(
        self, runtime: str, reads: Sequence[Key], writes: Sequence[Tuple[int, str, int]]
    ) -> bool:
        """Apply a transaction; returns whether it must commit."""
        seen = self.synced.get(runtime, 0)
        ok = all(self.last_write.get(key, 0) <= seen for key in reads)
        at = self._append([oid for oid, _ in reads] + [oid for oid, _, _ in writes])
        if ok:
            for oid, key, value in writes:
                self.state.setdefault(oid, {})[key] = value
                self.last_write[(oid, key)] = at
        if reads:
            # end_tx of a read-write transaction plays to its commit record;
            # a write-only one commits without playing.
            self.synced[runtime] = at
            self.commits += ok
            self.aborts += not ok
        else:
            self.commits += 1
        return ok


class TangoWorkload(Workload):
    """Shared plumbing: runtimes, the model, checked map operations."""

    def setup(self) -> None:
        super().setup()
        self.rng = random.Random(self.seed)
        self.model = TangoModel()
        self.digest_ = Digest()
        self.stamp = 0
        self.runtimes: List[TangoRuntime] = []
        self.counted_commits = 0
        self.counted_aborts = 0

    def digest(self) -> str:
        return self.digest_.hexdigest()

    def runtime(self, name: str, oids: Sequence[int]) -> Tuple[TangoRuntime, Dict[int, TangoMap]]:
        """A fresh runtime hosting TangoMaps *oids* (views start empty)."""
        rt = TangoRuntime(self.backend.cluster, client_id=len(self.runtimes) + 1, name=name)
        self.runtimes.append(rt)
        return rt, {oid: TangoMap(rt, oid) for oid in oids}

    def next_stamp(self) -> int:
        self.stamp += 1
        return self.stamp

    def put(self, role: str, name: str, tmap: TangoMap, key: str) -> None:
        value = self.next_stamp()
        self.digest_.note(1, tmap.oid, value)
        if self.timed(role, tmap.put, key, value) is not FAILED:
            self.model.put(tmap.oid, key, value)
            self.seg.ops_done += 1

    def get(self, role: str, name: str, tmap: TangoMap, key: str) -> None:
        self.digest_.note(2, tmap.oid)
        got = self.timed(role, tmap.get, key)
        want = self.model.get(name, tmap.oid, key)
        if got is not FAILED:
            self.seg.ops_done += 1
            if got != want:
                self.fail(f"{name}: get({tmap.oid}, {key!r}) = {got!r}, the log says {want!r}")

    def check_view(self, name: str, tmap: TangoMap) -> None:
        """A synced view must equal the model's state for its object."""
        self.attempted += 1
        view = dict(tmap.items())
        self.model.sync(name)
        if view != self.model.state.get(tmap.oid, {}):
            self.fail(f"{name}: view of object {tmap.oid} differs from the log's state")

    def check_outcomes(self) -> None:
        self.attempted += 1
        commits = sum(rt.stats["commits"] for rt in self.runtimes)
        aborts = sum(rt.stats["aborts"] for rt in self.runtimes)
        if (commits, aborts) != (self.model.commits, self.model.aborts):
            self.fail(
                f"runtimes decided {commits} commits / {aborts} aborts, the log "
                f"order implies {self.model.commits} / {self.model.aborts}"
            )

    def runtime_metrics(self, tracer: Tracer) -> Dict[str, float]:
        counted = tracer.ops_counted
        ops = sum(counted.values())
        applied = sum(tracer.count(kind, "objects.map:apply") for kind in counted)
        fetches = sum(tracer.count(kind, "net.transport:storage.read") for kind in counted)
        fetched = sum(tracer.count(kind, "streams:fetch") for kind in counted)
        decided = self.counted_commits + self.counted_aborts
        return {
            "streams.append_self_us": tracer.layer_self_p50_us("write", "streams"),
            "streams.sync_us": tracer.dur_p50_us("streams", "sync_many"),
            "streams.sync_rpcs": sum(
                tracer.count(kind, "net.transport:sequencer.query") for kind in counted
            ),
            "streams.readnext_us": tracer.dur_p50_us("streams", "readnext"),
            "streams.entries_per_fetch_rpc": fetched / fetches if fetches else 0.0,
            "tango.runtime.update_self_us": tracer.layer_self_p50_us("write", "tango.runtime"),
            "tango.runtime.query_self_us": tracer.layer_self_p50_us("read", "tango.runtime"),
            "tango.runtime.end_tx_self_us": tracer.layer_self_p50_us("group", "tango.runtime"),
            # the traced cost of playing one log entry into a view: sync,
            # fetch, decode, apply, version bump - scan time over entries.
            "tango.runtime.apply_us_per_entry": (
                self.seg.rec.total("scan", raw=True) / self.seg.scan_entries * 1e6
                if self.seg.scan_entries
                else 0.0
            ),
            "tango.runtime.applied_per_op": applied / ops if ops else 0.0,
            "tango.runtime.commits": self.counted_commits,
            "tango.runtime.abort_frac": self.counted_aborts / decided if decided else 0.0,
            "objects.map.apply_us": tracer.dur_p50_us("objects.map", "apply"),
        }


class TangoMix(TangoWorkload):
    """Two runtimes share one map under zipf contention.

    Mix: 50% ``get`` (read), 30% ``put`` (write), 20% transactions of 3
    reads + 3 writes (group), round-robined over runtimes A and B on the
    one driver thread. Zipf keys make B overwrite what A is about to
    read often enough that a seed-deterministic share of transactions
    aborts, so goodput and latency can diverge. Every ``lag_every`` ops a
    third, lagging runtime C syncs and plays the backlog in one go
    (scan).
    """

    name = "tango_mix"
    OID = 1

    def setup(self) -> None:
        super().setup()
        self.keys = [f"k{i:05d}" for i in range(self.sizes.mix_keys)]
        self.zipf = Zipf(len(self.keys))
        self.count_cycles = self.sizes.count_ops // 8
        #: runtime name -> (runtime, its view of the shared map)
        self.views: Dict[str, Tuple[TangoRuntime, TangoMap]] = {}
        for name in "ABC":
            rt, maps = self.runtime(name, (self.OID,))
            self.views[name] = (rt, maps[self.OID])
        for key in self.keys:
            value = self.next_stamp()
            self.views["A"][1].put(key, value)
            self.model.put(self.OID, key, value)
        for name, (_, tmap) in self.views.items():
            tmap.get(self.keys[0])
            self.model.sync(name)
        self.turn = 0
        for _ in range(self.sizes.warm_cycles):
            self.cycle()
        self.seg = Segment()

    def cycle(self) -> None:
        """Eight operations of the mix, then maybe the lagging reader."""
        for _ in range(8):
            self.turn += 1
            name = "AB"[self.turn & 1]
            rt, tmap = self.views[name]
            draw = self.rng.random()
            if draw < 0.5:
                self.get("read", name, tmap, self.keys[self.zipf.draw(self.rng)])
            elif draw < 0.8:
                self.put("write", name, tmap, self.keys[self.zipf.draw(self.rng)])
            else:
                self._transaction(name, rt, tmap)
        if self.turn % self.sizes.lag_every == 0:
            self._lagging_sync()

    def _transaction(self, name: str, rt: TangoRuntime, tmap: TangoMap) -> None:
        picked: List[str] = []
        while len(picked) < 6:
            key = self.keys[self.zipf.draw(self.rng)]
            if key not in picked:
                picked.append(key)
        reads, writes = picked[:3], [(k, self.next_stamp()) for k in picked[3:]]
        self.digest_.note(3, *(int(k[1:]) for k in picked))
        committed = self.timed("group", self._run_tx, rt, tmap, reads, writes)
        want = self.model.transaction(
            name, [(self.OID, k) for k in reads], [(self.OID, k, v) for k, v in writes]
        )
        if committed is FAILED:
            return
        self.seg.ops_done += 1
        if self.tracer is not None and self.tracer.counting:
            self.counted_commits += committed
            self.counted_aborts += not committed
        if committed:
            self.seg.group_writes += len(writes)
        if committed != want:
            self.fail(f"{name}: transaction committed={committed}, the log order implies {want}")

    @staticmethod
    def _run_tx(runtime: TangoRuntime, tmap: TangoMap, reads, writes) -> bool:
        runtime.begin_tx()
        for key in reads:
            tmap.get(key)
        for key, value in writes:
            tmap.put(key, value)
        return runtime.end_tx()

    def _lagging_sync(self) -> None:
        key = self.keys[self.zipf.draw(self.rng)]
        backlog = self.model.entries - self.model.synced["C"]
        got = self.timed("scan", self.views["C"][1].get, key)
        want = self.model.get("C", self.OID, key)
        if got is FAILED:
            return
        self.seg.ops_done += backlog
        self.seg.scan_entries += backlog
        if got != want:
            self.fail(f"C: get({key!r}) = {got!r} after catching up, the log says {want!r}")

    def finish(self) -> None:
        for name, (_, tmap) in self.views.items():
            self.check_view(name, tmap)
        self.check_outcomes()

    def layer_metrics(self, tracer: Tracer) -> Dict[str, float]:
        return self.runtime_metrics(tracer)


class TangoCatchup(TangoWorkload):
    """Fresh runtimes replay a long multi-object log.

    Set-up writes ``catchup_entries`` entries over 4 maps (90% single
    puts, 10% two-map write-only transactions). Each timed round: a
    burst from the long-lived writer (3/8 put = write, 4/8 get = read,
    1/8 two-map transaction = group), then a fresh runtime hosting all 4
    maps plays everything (scan), then a fresh runtime hosting 1 of the
    4 plays only that stream, skipping the rest by backpointers
    (``streams.selective_catchup_entries_per_s``). Appends are a small
    share of the round, so a write-path change predicts no change in
    ``scan_entries_per_s`` here.
    """

    name = "tango_catchup"
    OIDS = (1, 2, 3, 4)

    def setup(self) -> None:
        super().setup()
        self.keys = [f"k{i:04d}" for i in range(self.sizes.catchup_keys)]
        self.writer, self.maps = self.runtime("W", self.OIDS)
        self.rounds = 0
        self.count_cycles = 1  # the exact (#) counts cover the first burst
        for _ in range(self.sizes.catchup_entries):
            if self.rng.random() < 0.9:
                oid = self.rng.choice(self.OIDS)
                key, value = self.rng.choice(self.keys), self.next_stamp()
                self.maps[oid].put(key, value)
                self.model.put(oid, key, value)
            else:
                self._two_map_tx(timed=False)
        self.maps[1].get(self.keys[0])
        self.model.sync("W")

    def _two_map_tx(self, timed: bool) -> int:
        """A write-only transaction over two maps; returns the first's oid."""
        first, second = self.rng.sample(self.OIDS, 2)
        writes = [
            (first, self.rng.choice(self.keys), self.next_stamp()),
            (second, self.rng.choice(self.keys), self.next_stamp()),
        ]
        self.digest_.note(3, first, second)
        if timed:
            if self.timed("group", self._run_tx, writes) is FAILED:
                return first
            self.seg.ops_done += 1
            self.seg.group_writes += len(writes)
            if self.tracer is not None and self.tracer.counting:
                self.counted_commits += 1
        else:
            self._run_tx(writes)
        self.model.transaction("W", (), writes)
        return first

    def _run_tx(self, writes) -> bool:
        self.writer.begin_tx()
        for oid, key, value in writes:
            self.maps[oid].put(key, value)
        return self.writer.end_tx()

    def cycle(self) -> None:
        """The writer's burst: update, ``get``, update, ``get`` ...

        Every ``get`` reads the map the update before it wrote (each
        fourth update a two-map transaction, the rest ``put``), so it
        always plays exactly that one entry: a random mix would put the
        median ``get`` on the edge between "nothing to play" and "one
        entry to play".
        """
        for i in range(self.sizes.burst_ops // 2):
            if i % 4 == 3:
                oid = self._two_map_tx(timed=True)
            else:
                oid = self.rng.choice(self.OIDS)
                self.put("write", "W", self.maps[oid], self.rng.choice(self.keys))
            self.get("read", "W", self.maps[oid], self.rng.choice(self.keys))

    def run_block(self) -> None:
        """One round, each part bracketed by its own reference timings:
        a catch-up alone is far longer than BLOCK_SECONDS."""
        rec = self.seg.rec
        rec.begin_block()
        self.counted_cycle()
        rec.end_block()
        if self.tracer is not None:
            self.tracer.counting = False
        rec.begin_block()
        self._catch_up("scan", self.OIDS)
        rec.end_block()
        rec.begin_block()
        self._catch_up("scan_selective", (self.OIDS[self.rounds % len(self.OIDS)],))
        rec.end_block()
        self.rounds += 1
        # The two dropped runtimes are cyclic garbage, and the collector
        # is off while operations are timed.
        gc.collect()

    def _catch_up(self, role: str, oids: Sequence[int]) -> None:
        name = f"fresh-{role}-{self.rounds}"
        held = self.timed(role, self._fresh_view, name, oids)
        if held is FAILED:
            return
        if role == "scan":
            played = self.model.entries
            self.seg.scan_entries += played
        else:
            played = self.model.per_object.get(oids[0], 0)
            self.seg.selective_entries += played
        self.seg.ops_done += played
        for tmap in held.values():
            self.check_view(name, tmap)
        self.runtimes.pop()  # the fresh runtime decided nothing; drop it

    def _fresh_view(self, name: str, oids: Sequence[int]) -> Dict[int, TangoMap]:
        _, held = self.runtime(name, oids)
        held[oids[0]].get(self.keys[0])  # syncs and plays every hosted stream
        return held

    def finish(self) -> None:
        for tmap in self.maps.values():
            self.check_view("W", tmap)
        self.check_outcomes()

    def layer_metrics(self, tracer: Tracer) -> Dict[str, float]:
        out = self.runtime_metrics(tracer)
        selective = self.seg.rec.total("scan_selective")
        out["streams.selective_catchup_entries_per_s"] = (
            self.seg.selective_entries / selective if selective else 0.0
        )
        return out
