"""Runtime lock-order sanitizer tests.

The ABBA scenario is checked at BOTH layers here: tangolint's TL011
flags the fixture statically, and a live run of the same shape through
:class:`InstrumentedLock` is caught by the monitor — without the test
ever actually deadlocking (single-threaded interleaving produces the
same order edges two racing threads would).
"""

import json
import os
import threading

import pytest

from repro.tools import lockcheck
from repro.tools.lint import lint_paths
from repro.tools.lockcheck import InstrumentedLock, LockMonitor
from tests.lock_hierarchy import documented_hierarchy, static_graph, undocumented_edges

FIXTURES = os.path.join(os.path.dirname(__file__), "lint_fixtures")


def make_pair(monitor):
    a = InstrumentedLock(label="Pair._alpha", monitor=monitor)
    b = InstrumentedLock(label="Pair._beta", monitor=monitor)
    return a, b


# ---------------------------------------------------------------------------
# the ABBA scenario, static and dynamic
# ---------------------------------------------------------------------------


def test_abba_fixture_fires_tl011_statically():
    path = os.path.join(FIXTURES, "tl011_bad.py")
    findings = lint_paths([path], select=["TL011"])
    assert [d.rule_id for d in findings] == ["TL011"]
    assert "AbbaPair._alpha" in findings[0].message


def test_abba_order_is_caught_at_runtime():
    monitor = LockMonitor()
    alpha, beta = make_pair(monitor)
    with alpha:
        with beta:
            pass
    with beta:
        with alpha:  # closes the alpha -> beta -> alpha cycle
            pass
    violations = monitor.violations()
    assert len(violations) == 1
    assert violations[0]["kind"] == "lock-order-cycle"
    cycle = violations[0]["cycle"]
    assert set(cycle) == {"Pair._alpha", "Pair._beta"}
    with pytest.raises(AssertionError, match="lock-order"):
        monitor.assert_acyclic()


def test_abba_across_two_threads_is_caught():
    monitor = LockMonitor()
    alpha, beta = make_pair(monitor)
    first_done = threading.Event()

    def forward():
        with alpha:
            with beta:
                pass
        first_done.set()

    def backward():
        first_done.wait()
        with beta:
            with alpha:
                pass

    threads = [
        threading.Thread(target=forward),
        threading.Thread(target=backward),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(monitor.violations()) == 1


# ---------------------------------------------------------------------------
# non-violations
# ---------------------------------------------------------------------------


def test_consistent_order_is_clean():
    monitor = LockMonitor()
    alpha, beta = make_pair(monitor)
    for _ in range(3):
        with alpha:
            with beta:
                pass
    assert monitor.violations() == []
    assert monitor.edges() == [("Pair._alpha", "Pair._beta")]
    monitor.assert_acyclic()


def test_rlock_reentry_adds_no_edge():
    monitor = LockMonitor()
    lock = InstrumentedLock(label="R", reentrant=True, monitor=monitor)
    with lock:
        with lock:
            pass
    assert monitor.edges() == []
    assert monitor.violations() == []


def test_unnested_acquisitions_add_no_edges():
    monitor = LockMonitor()
    alpha, beta = make_pair(monitor)
    with alpha:
        pass
    with beta:
        pass
    assert monitor.edges() == []


def test_failed_tryacquire_records_nothing():
    monitor = LockMonitor()
    lock = InstrumentedLock(label="L", monitor=monitor)
    assert lock.acquire()
    # A second non-blocking acquire from another thread must fail
    # without perturbing the monitor state.
    result = {}
    t = threading.Thread(
        target=lambda: result.setdefault("got", lock.acquire(blocking=False))
    )
    t.start()
    t.join()
    assert result["got"] is False
    lock.release()
    stats = monitor.hold_stats()
    assert stats["L"]["acquisitions"] == 1


# ---------------------------------------------------------------------------
# hold-time stats
# ---------------------------------------------------------------------------


def test_hold_stats_accumulate():
    monitor = LockMonitor()
    lock = InstrumentedLock(label="Stats._lock", monitor=monitor)
    for _ in range(5):
        with lock:
            pass
    stats = monitor.hold_stats()["Stats._lock"]
    assert stats["acquisitions"] == 5
    assert stats["total_held_s"] >= 0.0
    assert stats["max_held_s"] <= stats["total_held_s"]
    report = monitor.report()
    assert "Stats._lock" in report["hold_stats"]


# ---------------------------------------------------------------------------
# guard inference across a class hierarchy
# ---------------------------------------------------------------------------

_SUBCLASS_LOCKS = """
import threading


class Base:
    def __init__(self):
        self._stats_lock = threading.Lock()
        self._count = 0

    def note(self):
        with self._stats_lock:
            self._count += 1


class Sub(Base):
    def __init__(self):
        super().__init__()
        self._lock = threading.Lock()
        self._deferred = []
        self._seq = 0

    def defer(self, item):
        with self._lock:
            self._defer_locked(item)

    def _defer_locked(self, item):
        self._seq += 1
        self._deferred.append((self._seq, item))

    def peek(self):
        with self._stats_lock:
            return len(self._deferred)
"""


def test_subclass_attribute_is_guarded_by_the_lock_held_at_its_writes(tmp_path):
    """A ``*_locked`` helper's writes are credited to the locks its callers
    hold: ``Sub._deferred`` is written only under ``Sub._lock``, so the
    inherited ``Base._stats_lock`` does not guard it, and a read under
    that lock alone is flagged."""
    from repro.tools.lint.engine import parse_module
    from repro.tools.lint.rules.concurrency import build_lock_graph

    path = tmp_path / "hierarchy.py"
    path.write_text(_SUBCLASS_LOCKS)
    module, _ = parse_module(str(path))
    guards = build_lock_graph([module]).guards
    assert guards["Base._stats_lock"] == {"Base._count", "Sub._count"}
    assert guards["Sub._lock"] == {"Sub._deferred", "Sub._seq"}
    findings = lint_paths([str(path)], select=["TL010"])
    peek = _SUBCLASS_LOCKS.splitlines().index("            return len(self._deferred)")
    assert [(d.rule_id, d.line) for d in findings] == [("TL010", peek + 1)]
    assert "Sub._deferred" in findings[0].message


# ---------------------------------------------------------------------------
# a nested function's body runs where it is called, not where it is defined
# ---------------------------------------------------------------------------

_DEFERRED_CALLBACK = """
import threading


class Other:
    def __init__(self):
        self._b = threading.Lock()

    def poke(self):
        with self._b:
            pass


class Holder:
    def __init__(self, other: Other):
        self._lock = threading.Lock()
        self._other = other
        self._later = []

    def defer(self):
        with self._lock:
            self._defer_locked()

    def _defer_locked(self):
        def later():
            self._other.poke()

        self._later.append(later)

    def run_deferred(self):
        with self._lock:
            pending, self._later = self._later, []
        for fn in pending:
            fn()
"""


def _lockcheck_edges(tmp_path, source, capsys):
    from repro.tools.lockcheck import cli

    path = tmp_path / "deferred.py"
    path.write_text(source)
    assert cli.main(["--json", str(path)]) == 0
    graph = json.loads(capsys.readouterr().out)
    return {(edge["from"], edge["to"]) for edge in graph["edges"]}


def test_a_deferred_nested_function_adds_no_order_edge(tmp_path, capsys):
    """``later`` is only handed on, and runs after ``_lock`` is released:
    ``Holder._lock -> Other._b`` would be a phantom edge."""
    assert _lockcheck_edges(tmp_path, _DEFERRED_CALLBACK, capsys) == set()


def test_a_nested_function_called_by_name_counts_under_the_callers_locks(
    tmp_path, capsys
):
    called = _DEFERRED_CALLBACK.replace(
        "        self._later.append(later)\n", "        later()\n"
    )
    assert called != _DEFERRED_CALLBACK
    assert _lockcheck_edges(tmp_path, called, capsys) == {("Holder._lock", "Other._b")}


# ---------------------------------------------------------------------------
# install(): wrapping the real repro lock sites
# ---------------------------------------------------------------------------


def test_install_instruments_repro_locks_and_workload_is_acyclic():
    if lockcheck.monitor() is not None:
        pytest.skip("sanitizer already installed for this session")
    monitor = lockcheck.install()
    try:
        assert lockcheck.install() is monitor  # idempotent
        from repro.corfu import CorfuCluster
        from repro.objects import TangoRegister
        from repro.tango.runtime import TangoRuntime

        cluster = CorfuCluster(num_sets=3, replication_factor=2)
        runtime = TangoRuntime(cluster, client_id=1)
        register = TangoRegister(runtime, oid=1)
        register.write(7)
        assert register.read() == 7
        # The workload exercised real nested locking (runtime -> stream
        # -> client counters); the witnessed order must be acyclic.
        assert monitor.edges() != []
        monitor.assert_acyclic()
        assert monitor.hold_stats()  # something was measured
    finally:
        assert lockcheck.uninstall() is monitor
    assert threading.Lock is lockcheck._real_lock
    assert threading.RLock is lockcheck._real_rlock


# ---------------------------------------------------------------------------
# docs/CONCURRENCY.md records the static hierarchy of src/repro
# ---------------------------------------------------------------------------

def test_documented_lock_hierarchy_matches_the_source():
    graph = static_graph()
    order, edges, count = documented_hierarchy()
    assert order == graph.topological_order()
    assert edges == set(graph.edges)
    assert count == len(graph.nodes)


def test_witnessed_edges_are_named_from_the_static_graph_and_documented():
    """The session teardown check (``REPRO_LOCKCHECK=1``), on one
    workload: runtime sites map to the table's ``Class.attr`` names, and
    an in-process get and put witness only documented edges."""
    if lockcheck.monitor() is not None:
        pytest.skip("sanitizer already installed for this session")
    monitor = lockcheck.install()
    try:
        from repro.corfu import CorfuCluster
        from repro.objects import TangoMap
        from repro.tango.runtime import TangoRuntime

        cluster = CorfuCluster(num_sets=2, replication_factor=2)
        writer, reader = TangoRuntime(cluster, client_id=1), TangoRuntime(cluster, client_id=2)
        TangoMap(writer, 1).put("k", 1)
        assert TangoMap(reader, 1).get("k") == 1
    finally:
        lockcheck.uninstall()
    assert undocumented_edges(monitor) == []
    witnessed = {(a.label, b.label) for a, b in monitor.edge_sites()}
    assert witnessed == set(monitor.edges())
    held = {a.path for a, _b in monitor.edge_sites()}
    assert any(path.endswith(os.path.join("tango", "runtime.py")) for path in held)


def test_an_undocumented_edge_is_reported_by_its_names():
    monitor = LockMonitor()
    outer = InstrumentedLock(label="outer", monitor=monitor)
    inner = InstrumentedLock(label="inner", monitor=monitor)
    with outer, inner:
        pass
    # Neither site is a node of the static graph: both keep their labels.
    assert undocumented_edges(monitor) == ["outer -> inner"]
