"""The three deployments a workload can run on, and their clean-up.

Layout everywhere: 2 replica sets x 2 replicas + 1 sequencer, so every
write has a head and a tail hop. Everything a backend leaves behind
(node processes, temp dirs) is released by ``close()``, which runs from
``try/finally`` in the driver; ``close_all`` is the driver's ``atexit``
and timeout hook for whatever is still open. All files stay under
``benchmarks/tangobench/out``.
"""

from __future__ import annotations

import itertools
import os
import shutil
import sys
from time import perf_counter
from typing import Dict, List, Optional

from repro.corfu import CorfuCluster
from repro.corfu.durable import open_durable_cluster
from repro.proc import RemoteCluster, Supervisor, cluster_specs
from repro.store import CompactionPolicy

OUT_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "out")
NUM_SETS = 2
REPLICAS = 2
SEGMENT_BYTES = 1 << 16

_open: List["Backend"] = []
_tmp_ids = itertools.count()


class Backend:
    """One live deployment: ``cluster`` plus whatever must be torn down."""

    kind = "inproc"

    def __init__(self) -> None:
        self.cluster = self._open_cluster()
        self.transport = self.cluster.transport
        _open.append(self)

    def _open_cluster(self):
        return CorfuCluster(num_sets=NUM_SETS, replication_factor=REPLICAS)

    def node_pids(self) -> Dict[str, int]:
        return {}

    def close(self) -> None:
        if self in _open:
            _open.remove(self)
            self._release()

    def _release(self) -> None:
        pass


class WireBackend(Backend):
    """Five real node processes on ephemeral ports over loopback TCP."""

    kind = "wire"

    def _open_cluster(self):
        self.supervisor: Optional[Supervisor] = None
        t0 = perf_counter()
        supervisor = Supervisor(cluster_specs(NUM_SETS, REPLICAS))
        try:
            supervisor.start()
            supervisor.ensure_up()  # a node that exited also ends the READY wait
            self.spawn_ready_s = perf_counter() - t0
            cluster = RemoteCluster(
                supervisor.addresses(), num_sets=NUM_SETS, replication_factor=REPLICAS
            )
        except BaseException:
            # say why before failing: each node's last words
            for spec in cluster_specs(NUM_SETS, REPLICAS):
                try:
                    tail = supervisor.output_tail(spec.name)[-20:]
                except KeyError:  # never spawned
                    continue
                print(f"tangobench: node {spec.name} output tail:", file=sys.stderr)
                for line in tail:
                    print(f"    {line}", file=sys.stderr)
            supervisor.stop()
            raise
        self.supervisor = supervisor
        return cluster

    def node_pids(self) -> Dict[str, int]:
        assert self.supervisor is not None
        return {
            name: int(self.supervisor.ping(name)["pid"])
            for name in self.supervisor.addresses()
        }

    def _release(self) -> None:
        try:
            self.cluster.close()
        finally:
            if self.supervisor is not None:
                self.supervisor.stop()


class DurableBackend(Backend):
    """Segmented store under a temp dir; ``sync=False`` on purpose: this
    measures the code path (framing, roll, compaction), not the device,
    and is the same on both sides of any comparison."""

    kind = "durable"

    def _open_cluster(self):
        os.makedirs(OUT_DIR, exist_ok=True)
        self.data_dir = os.path.join(OUT_DIR, f"tmp-{os.getpid()}-{next(_tmp_ids)}")
        return self._open_dir()

    def _open_dir(self):
        return open_durable_cluster(
            self.data_dir,
            num_sets=NUM_SETS,
            replication_factor=REPLICAS,
            segment_bytes=SEGMENT_BYTES,
            sync=False,
            compaction_policy=CompactionPolicy(
                min_garbage_ratio=0.3, min_dead_bytes=1024
            ),
        )

    def _close_units(self) -> None:
        for name in self.cluster.projection.all_nodes():
            self.cluster.storage(name).close()

    def reopen(self):
        """Close every unit and recover the whole log from the directory."""
        self._close_units()
        self.cluster = self._open_dir()
        self.transport = self.cluster.transport
        return self.cluster

    def _release(self) -> None:
        try:
            self._close_units()
        finally:
            shutil.rmtree(self.data_dir, ignore_errors=True)


BACKENDS = {"inproc": Backend, "wire": WireBackend, "durable": DurableBackend}


def close_all() -> None:
    """Tear down anything still open (normal exit, error, or timeout)."""
    for backend in list(_open):
        try:
            backend.close()
        except Exception as exc:  # noqa: BLE001 - last-chance clean-up keeps going
            print(f"tangobench: teardown of {backend.kind} failed: {exc!r}", file=sys.stderr)
