"""Logs written with JSON ops replay exactly as binary-op logs do.

Before ``repro.util.encoding.OpTable``, every library object encoded its
updates as JSON text. ``tests/frozen_object_ops.py`` keeps those
encoders verbatim. Each test runs one script of mutators twice, on two
fresh clusters: once with the frozen JSON encoders standing in for
``TangoObject._op``, once as the code stands. Fresh runtimes replaying
either log (through a full and a delta checkpoint of the map) must end
with the same views and the same version tables.
"""

import pytest

from repro.corfu import CorfuCluster
from repro.objects import (
    Ledger,
    TangoCounter,
    TangoGraph,
    TangoIndexedMap,
    TangoList,
    TangoLock,
    TangoMap,
    TangoQueue,
    TangoRegister,
    TangoTreeSet,
    TangoZK,
)
from repro.tango.directory import TangoDirectory
from repro.tango.hosting import HostingRegistry
from repro.tango.object import TangoObject
from repro.tango.runtime import TangoRuntime
from repro.util.encoding import OP_TAG_BASE
from tests import frozen_object_ops as frozen

#: (type, oid, constructor kwargs) of every object the script touches.
OBJECTS = (
    (TangoDirectory, 0, {}),
    (TangoMap, 1, {}),
    (TangoIndexedMap, 2, {}),
    (TangoRegister, 3, {}),
    (TangoCounter, 4, {}),
    (TangoQueue, 5, {}),
    (TangoList, 6, {}),
    (TangoTreeSet, 7, {}),
    (TangoLock, 8, {}),
    (TangoGraph, 9, {}),
    (Ledger, 10, {"writer_token": "w1"}),
    (TangoZK, 11, {}),
    (HostingRegistry, 12, {}),
)


def _open(rt, cls, oid, kwargs):
    if cls is TangoDirectory:
        return cls(rt)
    return cls(rt, oid, **kwargs)


def _script(rt):
    """Every op of every type, plus a full and a delta map checkpoint."""
    objs = {cls: _open(rt, cls, oid, kw) for cls, oid, kw in OBJECTS}
    m = objs[TangoMap]
    m.put("a", 1)
    m.put("gone", "x")
    m.clear()
    m.put("a", {"nested": [1, 2.5, None], "7": True})
    m.put("big", 2**70)
    m.put("é→", "ünïcode")
    m.remove("a")
    m.size()  # a checkpoint covers what the view has played
    rt.checkpoint(1, mode="full")
    m.put("b", [1, [2, {"3": -0.0}]])
    m.put("big", -(2**63))
    m.size()
    rt.checkpoint(1, mode="delta")
    m.put("c", 1.25)
    m.remove("b")

    im = objs[TangoIndexedMap]
    im.put("k", [1, "v"])
    im.put("j", 2)
    im.remove("j")

    reg = objs[TangoRegister]
    reg.write({"op": "looks like an op", "v": 1})
    reg.write([1, "x", None])

    ctr = objs[TangoCounter]
    ctr.increment(5)
    ctr.decrement(2)
    ctr.set(9)
    assert ctr.next_id() == 9

    q = objs[TangoQueue]
    q.enqueue("x")
    q.enqueue({"y": 1})
    assert q.dequeue() == "x"

    lst = objs[TangoList]
    lst.append("a")
    lst.insert(0, "b")
    lst.append(3)
    lst.remove_value("a")
    assert lst.take_head() == "b"
    lst.clear()
    lst.append({"z": [1]})

    ts = objs[TangoTreeSet]
    for value in (3, 1, 2):
        ts.add(value)
    ts.discard(3)

    lock = objs[TangoLock]
    assert lock.try_acquire("l", "h1") is not None
    lock.release("l", "h1")
    assert lock.try_acquire("m", "h2") is not None
    lock.break_lock("m")
    assert lock.try_acquire("n", "h3") is not None

    g = objs[TangoGraph]
    g.add_node("a", {"rack": 1})
    g.add_edge("a", "b", "10G")
    g.add_edge("b", "c")
    g.remove_edge("a", "b")
    g.add_node("d")
    g.remove_node("c")

    ledger = objs[Ledger]
    ledger.claim()
    ledger.add_entry(b"\x00one")
    ledger.add_entries([b"two", b"three"])
    ledger.close()

    zk = objs[TangoZK]
    zk.create("/app", b"cfg")
    zk.create("/app/lock-", b"", ephemeral=True, sequential=True)
    zk.set_data("/app", b"\xffcfg2")
    zk.create("/app/tmp", b"t")
    zk.delete("/app/tmp")

    d = objs[TangoDirectory]
    oid = d.get_or_create("named")
    d.get_or_create("other")
    d.remove("other")
    d.forget(oid, 3)

    hosts = objs[HostingRegistry]
    hosts.announce("c1", [3, 1])
    hosts.announce("c2", [2])
    hosts.retract("c1", [1])
    hosts.leave("c2")
    return objs


def _frozen_op(self, name, *fields, key=None):
    self._update(frozen.encode(self, name, *fields), key=key)


def _run(monkeypatch, legacy):
    """Run the script on a fresh cluster; returns (cluster, payloads)."""
    cluster = CorfuCluster(num_sets=2, replication_factor=2)
    payloads = []
    with monkeypatch.context() as patch:
        if legacy:
            patch.setattr(TangoObject, "_op", _frozen_op)
        update_helper = TangoRuntime.update_helper

        def recording(rt, oid, payload, key=None):
            payloads.append(payload)
            return update_helper(rt, oid, payload, key=key)

        patch.setattr(TangoRuntime, "update_helper", recording)
        _script(TangoRuntime(cluster, client_id=1))
    return cluster, payloads


def _replay(cluster):
    """Views and version tables of a fresh runtime hosting everything."""
    rt = TangoRuntime(cluster, client_id=2)
    objs = {cls: _open(rt, cls, oid, kw) for cls, oid, kw in OBJECTS}
    for _cls, oid, _kw in OBJECTS:
        rt.query_helper(oid)
    views = {cls.__name__: obj.get_checkpoint() for cls, obj in objs.items()
             if cls is not TangoIndexedMap}
    versions = {}
    for _cls, oid, _kw in OBJECTS:
        keys = [key for key, _version in rt._versions.snapshot_keys(oid)]
        versions[oid] = (
            rt.version_of(oid),
            {key: rt.version_of(oid, key) for key in keys},
        )
    return rt, objs, views, versions


@pytest.fixture(scope="module")
def logs():
    monkeypatch = pytest.MonkeyPatch()
    try:
        legacy = _run(monkeypatch, legacy=True)
        current = _run(monkeypatch, legacy=False)
    finally:
        monkeypatch.undo()
    return legacy, current


class TestLegacyLogsReplay:
    def test_the_two_logs_differ_only_in_op_format(self, logs):
        (legacy_cluster, legacy), (current_cluster, current) = logs
        assert len(legacy) == len(current) > 60
        assert all(p[0] < 0x80 for p in legacy)
        assert all(p[0] >= OP_TAG_BASE for p in current)
        tails = [c.client().check() for c in (legacy_cluster, current_cluster)]
        assert tails[0] == tails[1]

    def test_views_and_versions_are_identical(self, logs):
        (legacy_cluster, _), (current_cluster, _) = logs
        _rt, _objs, legacy_views, legacy_versions = _replay(legacy_cluster)
        _rt, _objs, views, versions = _replay(current_cluster)
        assert legacy_views == views
        assert legacy_versions == versions
        assert versions[1][1]  # the map's keys were versioned

    def test_map_replays_through_its_full_and_delta_checkpoints(self, logs):
        (legacy_cluster, _), (current_cluster, _) = logs
        for cluster in (legacy_cluster, current_cluster):
            rt = TangoRuntime(cluster, client_id=3)
            assert dict(TangoMap(rt, 1).items()) == {
                "big": -(2**63),
                "é→": "ünïcode",
                "c": 1.25,
            }
            # The delta chain stood in for the map's history: only the
            # two updates after it were applied.
            assert rt.stats["applied_updates"] == 2

    def test_indexed_map_reads_legacy_puts_from_the_log(self, logs):
        (legacy_cluster, _), (current_cluster, _) = logs
        for cluster in (legacy_cluster, current_cluster):
            _rt, objs, _views, _versions = _replay(cluster)
            assert objs[TangoIndexedMap].get("k") == [1, "v"]
            assert objs[TangoIndexedMap].get("j") is None

    def test_register_reads_a_legacy_bare_value(self, logs):
        (legacy_cluster, _), _ = logs
        _rt, objs, _views, _versions = _replay(legacy_cluster)
        assert objs[TangoRegister].read() == [1, "x", None]

    def test_an_upgraded_writer_extends_a_legacy_log(self, monkeypatch):
        cluster = CorfuCluster(num_sets=2, replication_factor=2)
        with monkeypatch.context() as patch:
            patch.setattr(TangoObject, "_op", _frozen_op)
            old = TangoMap(TangoRuntime(cluster, client_id=1), 1)
            old.put("a", 1)
            old.put("b", [2])
        new = TangoMap(TangoRuntime(cluster, client_id=2), 1)
        assert dict(new.items()) == {"a": 1, "b": [2]}
        new.remove("a")
        new.put("c", {"3": None})
        fresh = TangoMap(TangoRuntime(cluster, client_id=3), 1)
        assert dict(fresh.items()) == {"b": [2], "c": {"3": None}}
