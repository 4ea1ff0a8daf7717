"""In-process wiring for a CORFU deployment.

A :class:`CorfuCluster` owns the storage units and sequencers named by
the current projection and plays the role of the auxiliary that stores
projections (the paper's CORFU keeps projections in a separate
Paxos-backed auxiliary; for an in-process deployment a single
authoritative copy with an epoch check gives the same semantics).

The cluster also exposes the fault-injection surface used by the tests
and benchmarks: crashing/recovering storage units and sequencers.
Clients never touch each other — they share only the cluster, exactly as
Tango runtimes share only the log.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

from repro.corfu.entry import DEFAULT_ENTRY_SIZE, DEFAULT_K
from repro.corfu.layout import Projection, build_projection
from repro.corfu.sequencer import Sequencer
from repro.corfu.storage import FlashUnit
from repro.errors import NodeDownError
from repro.net import LoopbackTransport, Transport


class CorfuCluster:
    """A complete in-process CORFU deployment.

    Args:
        num_sets: number of disjoint replica sets (chains).
        replication_factor: nodes per chain. The paper's default
            deployment is ``num_sets=9, replication_factor=2``.
        k: backpointer redundancy per stream header.
        entry_size: fixed log entry size in bytes (deployment constant).
        max_streams: maximum streams per entry, i.e. the cap on how many
            objects one transaction may write (section 4.1).
        seq_shards: number of sequencer shards. The default 1 is the
            paper's single networked counter; N > 1 stripes the offset
            space over N independently-locked shards (stream ``sid``
            belongs to shard ``sid % N``).
        projection: custom initial projection (overrides num_sets /
            replication_factor / seq_shards).
        transport: the client↔node message boundary. Defaults to a
            :class:`~repro.net.LoopbackTransport` (direct calls); pass
            a :class:`~repro.net.FaultyTransport` to inject network
            faults.
    """

    def __init__(
        self,
        num_sets: int = 9,
        replication_factor: int = 2,
        k: int = DEFAULT_K,
        entry_size: int = DEFAULT_ENTRY_SIZE,
        max_streams: int = 16,
        seq_shards: int = 1,
        projection: Optional[Projection] = None,
        transport: Optional[Transport] = None,
    ) -> None:
        self.k = k
        self.entry_size = entry_size
        self.max_streams = max_streams
        self.transport = transport if transport is not None else LoopbackTransport()
        if projection is None:
            projection = build_projection(
                num_sets, replication_factor, seq_shards=seq_shards
            )
        self._projection = projection
        self._lock = threading.Lock()
        self._client_ids = iter(range(1, 1 << 31))
        self._units: Dict[str, FlashUnit] = {
            name: FlashUnit(name) for name in projection.all_nodes()
        }
        shards = projection.sequencer_shards
        self._sequencers: Dict[str, Sequencer] = {
            name: Sequencer(
                name, k=k, shard_index=i, num_shards=len(shards)
            )
            for i, name in enumerate(shards)
        }

    # -- membership ---------------------------------------------------------

    @property
    def projection(self) -> Projection:
        """The current (latest-epoch) projection."""
        with self._lock:
            return self._projection

    def install_projection(self, projection: Projection) -> None:
        """Atomically install a higher-epoch projection."""
        with self._lock:
            if projection.epoch <= self._projection.epoch:
                raise ValueError(
                    f"projection epoch {projection.epoch} is not newer than "
                    f"current epoch {self._projection.epoch}"
                )
            self._projection = projection

    def storage(self, name: str) -> FlashUnit:
        """Look up a storage unit by name."""
        try:
            return self._units[name]
        except KeyError:
            raise NodeDownError(name) from None

    def sequencer(self, name: Optional[str] = None) -> Sequencer:
        """Look up a sequencer (defaults to the current projection's)."""
        if name is None:
            name = self.projection.sequencer
        # Hot path, once per in-process grant: a known sequencer is
        # returned without the lock. The map is add-only and a dict
        # lookup is atomic under the GIL, so the read sees either no
        # entry (and falls through to the locked create) or the one
        # instance that will ever exist for *name*.
        seq = self._sequencers.get(name)  # tangolint: disable=TL010
        if seq is not None:
            return seq
        # Lazy creation happens under the lock: two clients racing to
        # reach a fresh sequencer after failover must agree on one
        # instance, or grants from the loser's copy duplicate offsets.
        # A name appearing in the current projection's shard tuple gets
        # that shard's stripe geometry; anything else (a replacement
        # shard mid-failover) must be pre-created via
        # :meth:`create_sequencer` with explicit striping.
        with self._lock:
            seq = self._sequencers.get(name)
            if seq is None:
                shards = self._projection.sequencer_shards
                if name in shards:
                    seq = Sequencer(
                        name,
                        k=self.k,
                        shard_index=shards.index(name),
                        num_shards=len(shards),
                    )
                else:
                    seq = Sequencer(name, k=self.k)
                self._sequencers[name] = seq
        return seq

    def create_sequencer(
        self, name: str, shard_index: int = 0, num_shards: int = 1
    ) -> Sequencer:
        """Create (or return) a sequencer with explicit stripe geometry.

        Reconfiguration uses this to stand up a replacement shard
        *before* the projection naming it is installed; racing failovers
        of the same shard agree on one instance (first creation wins,
        and replacement names are unique per epoch).
        """
        with self._lock:
            seq = self._sequencers.get(name)
            if seq is None:
                seq = Sequencer(
                    name,
                    k=self.k,
                    shard_index=shard_index,
                    num_shards=num_shards,
                )
                self._sequencers[name] = seq
        return seq

    def client(self, name: Optional[str] = None) -> "CorfuClient":
        """Create a new client library instance bound to this cluster.

        Each client is a distinct transport endpoint (so partitions can
        isolate individual clients); *name* overrides the generated
        endpoint name.
        """
        from repro.corfu.client import CorfuClient

        return CorfuClient(self, name=name)

    def next_client_name(self) -> str:
        """Mint a unique transport endpoint name for a new client."""
        with self._lock:
            return f"client-{next(self._client_ids)}"

    # -- fault injection ----------------------------------------------------

    def crash_storage(self, name: str) -> None:
        """Crash one storage unit (contents survive, being flash)."""
        self._units[name].crash()

    def recover_storage(self, name: str) -> None:
        """Recover a previously crashed storage unit."""
        self._units[name].recover()

    def crash_sequencer(self, name: Optional[str] = None) -> None:
        """Crash a sequencer, losing its soft state."""
        if name is None:
            name = self.projection.sequencer
        with self._lock:
            seq = self._sequencers[name]
        # Crash outside the membership lock: Sequencer.crash takes the
        # sequencer's own lock, and the cluster lock stays a leaf.
        seq.crash()

    # -- introspection ------------------------------------------------------

    def total_storage_reads(self) -> int:
        return sum(u.reads for u in self._units.values())

    def total_trimmed_reads(self) -> int:
        """Reads of trimmed addresses, over every unit (not counted in
        :meth:`total_storage_reads`, which counts pages served)."""
        return sum(u.trimmed_reads for u in self._units.values())

    def total_storage_writes(self) -> int:
        return sum(u.writes for u in self._units.values())

    def store_status(self):
        """Per-unit storage accounting, aggregated in process.

        Reads the units directly (like :meth:`total_storage_reads`), so
        callers holding client-side locks can use it without issuing
        RPCs; remote deployments use
        :meth:`~repro.corfu.client.CorfuClient.store_status` instead.
        """
        nodes = {
            name: unit.store_status()
            for name, unit in sorted(self._units.items())
            if not unit.is_down
        }
        return {
            "nodes": nodes,
            "segments": sum(n["segments"] for n in nodes.values()),
            "disk_bytes": sum(n["disk_bytes"] for n in nodes.values()),
            "resident_bytes": sum(
                n["resident_bytes"] for n in nodes.values()
            ),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        p = self.projection
        return (
            f"<CorfuCluster epoch={p.epoch} sets={len(p.replica_sets)} "
            f"sequencer={p.sequencer}>"
        )
