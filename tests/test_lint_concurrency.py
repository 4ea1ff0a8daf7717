"""TL010-TL013 analysis tests: lock-set inference, order graph, and
lifecycle checks on focused source snippets (the fixture pairs in
``lint_fixtures/`` cover the fire/quiet basics; these pin down the
inference rules the messages depend on)."""

import textwrap

from repro.tools.lint import lint_paths
from repro.tools.lint.engine import parse_module
from repro.tools.lint.rules.concurrency import build_lock_graph

CONCURRENCY = ["TL010", "TL011", "TL012", "TL013"]


def lint_source(tmp_path, source, select=None):
    path = tmp_path / "snippet.py"
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return lint_paths([str(path)], select=select or CONCURRENCY)


def graph_of(tmp_path, source):
    path = tmp_path / "snippet.py"
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    module, error = parse_module(str(path))
    assert error is None
    return build_lock_graph([module])


# ---------------------------------------------------------------------------
# TL010: guarded-attribute inference
# ---------------------------------------------------------------------------


def test_tl010_private_helper_inherits_caller_locks(tmp_path):
    # _bump is only ever called with the lock held, so its writes are
    # guarded accesses — no findings anywhere.
    findings = lint_source(
        tmp_path,
        """
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self._n = 0

            def bump(self):
                with self._lock:
                    self._bump()

            def _bump(self):
                self._n += 1
        """,
    )
    assert findings == []


def test_tl010_helper_with_one_unlocked_caller_is_not_protected(tmp_path):
    # The intersection over call sites is empty (one caller holds no
    # lock), so the helper's write executes unguarded.
    findings = lint_source(
        tmp_path,
        """
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self._n = 0

            def bump(self):
                with self._lock:
                    self._n += 1
                    self._bump()

            def sloppy_bump(self):
                self._bump()

            def _bump(self):
                self._n += 1
        """,
    )
    assert [d.rule_id for d in findings] == ["TL010"]
    assert "_n" in findings[0].message


def test_tl010_locked_suffix_asserts_all_locks_held(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self._n = 0

            def bump(self):
                with self._lock:
                    self._n += 1

            def _drain_locked(self):
                self._n = 0
        """,
    )
    assert findings == []


def test_tl010_construction_only_helpers_are_exempt(tmp_path):
    # _seed is reachable only from __init__: no concurrency yet.
    findings = lint_source(
        tmp_path,
        """
        import threading

        class Table:
            def __init__(self):
                self._lock = threading.Lock()
                self._rows = {}
                self._seed()

            def _seed(self):
                self._rows[0] = "genesis"

            def put(self, key, value):
                with self._lock:
                    self._rows[key] = value
        """,
    )
    assert findings == []


_ALIAS_TABLE = """
import threading

class Table:
    def __init__(self):
        self._lock = threading.Lock()
        self._rows = {}

    def clear(self):
        with self._lock:
            self._rows.clear()

    def put_all(self, items):
        with self._lock:
            put = self._put
%s
    def _put(self, key, value):
        self._rows[key] = value
"""


def test_tl010_bound_method_alias_is_a_call_site(tmp_path):
    # _put is only ever called through the local alias, inside the
    # lock: the alias call is its call site, so its write is guarded.
    findings = lint_source(
        tmp_path,
        _ALIAS_TABLE % """\
            for key, value in items:
                put(key, value)
""",
    )
    assert findings == []


def test_tl010_bound_method_alias_called_unlocked_still_fires(tmp_path):
    # Bound under the lock but called after it is released: the locks
    # held at the call are what count.
    findings = lint_source(
        tmp_path,
        _ALIAS_TABLE % """\
        for key, value in items:
            put(key, value)
""",
    )
    assert [d.rule_id for d in findings] == ["TL010"]
    assert "_rows" in findings[0].message


def test_tl010_subclass_inherits_base_guards(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        import threading

        class Base:
            def __init__(self):
                self._lock = threading.Lock()
                self._n = 0

            def bump(self):
                with self._lock:
                    self._n += 1

        class Child(Base):
            def peek(self):
                return self._n
        """,
    )
    assert [d.rule_id for d in findings] == ["TL010"]
    assert "Child._n" in findings[0].message


def test_tl010_container_mutation_counts_as_write(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        import threading

        class Box:
            def __init__(self):
                self._lock = threading.Lock()
                self._items = []

            def add(self, item):
                with self._lock:
                    self._items.append(item)

            def rogue_add(self, item):
                self._items.append(item)
        """,
    )
    assert [d.rule_id for d in findings] == ["TL010"]


def test_tl010_typed_attr_calls_are_not_container_writes(tmp_path):
    # _child has a known program-class type: .append() is a call into
    # that class, not a mutation of an attribute named _child.
    findings = lint_source(
        tmp_path,
        """
        import threading

        class Log:
            def append(self, item):
                return item

        class Owner:
            def __init__(self, log: Log):
                self._lock = threading.Lock()
                self._child = log
                self._n = 0

            def locked_use(self):
                with self._lock:
                    self._n += 1
                    self._child.append(1)

            def unlocked_use(self):
                self._child.append(2)
        """,
    )
    assert findings == []


def test_tl010_suppression_comment_silences(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self._n = 0

            def bump(self):
                with self._lock:
                    self._n += 1

            def racy_peek(self):
                return self._n  # tangolint: disable=TL010
        """,
    )
    assert findings == []


# ---------------------------------------------------------------------------
# TL011: the acquisition-order graph
# ---------------------------------------------------------------------------


def test_tl011_reports_the_cycle_chain(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        import threading

        class Pair:
            def __init__(self):
                self._a = threading.Lock()
                self._b = threading.Lock()

            def fwd(self):
                with self._a:
                    with self._b:
                        pass

            def rev(self):
                with self._b:
                    with self._a:
                        pass
        """,
    )
    assert [d.rule_id for d in findings] == ["TL011"]
    assert "Pair._a" in findings[0].message and "Pair._b" in findings[0].message


def test_tl011_cross_class_edge_via_typed_attr(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        import threading

        class Inner:
            def __init__(self, outer: "Outer"):
                self._ilock = threading.Lock()
                self._outer = outer

            def poke(self):
                with self._ilock:
                    pass

            def backwards(self):
                # Inner._ilock -> Outer._olock: closes the cycle.
                with self._ilock:
                    self._outer.run()

        class Outer:
            def __init__(self):
                self._olock = threading.Lock()
                self._inner = Inner(self)

            def run(self):
                with self._olock:
                    self._inner.poke()
        """,
        select=["TL011"],
    )
    assert [d.rule_id for d in findings] == ["TL011"]


def test_lock_graph_edges_and_topo_order(tmp_path):
    graph = graph_of(
        tmp_path,
        """
        import threading

        class Chain:
            def __init__(self):
                self._a = threading.Lock()
                self._b = threading.Lock()

            def nest(self):
                with self._a:
                    with self._b:
                        pass
        """,
    )
    assert ("Chain._a", "Chain._b") in graph.edges
    assert graph.cycles() == []
    order = graph.topological_order()
    assert order is not None
    assert order.index("Chain._a") < order.index("Chain._b")


def test_lock_graph_records_guards(tmp_path):
    graph = graph_of(
        tmp_path,
        """
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self._n = 0

            def bump(self):
                with self._lock:
                    self._n += 1
        """,
    )
    assert graph.guards.get("Counter._lock") == {"Counter._n"}


# ---------------------------------------------------------------------------
# TL012: blocking calls under a lock
# ---------------------------------------------------------------------------


def test_tl012_flags_each_blocking_kind(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        import threading
        import time

        class Worker:
            def __init__(self):
                self._lock = threading.Lock()
                self._gate = threading.Lock()
                self._node = object()

            def naps(self):
                with self._lock:
                    time.sleep(0.1)

            def acquires(self):
                with self._lock:
                    self._gate.acquire()
                    self._gate.release()

            def rpcs(self):
                with self._lock:
                    self._node.read(1)
        """,
        select=["TL012"],
    )
    kinds = sorted(d.message.split(" while")[0] for d in findings)
    assert len(findings) == 3
    assert any("time.sleep" in k for k in kinds)
    assert any("acquire" in k for k in kinds)
    assert any("RPC 'read'" in k for k in kinds)


def test_tl012_nonblocking_acquire_and_timed_wait_pass(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        import threading

        class Worker:
            def __init__(self):
                self._lock = threading.Lock()
                self._gate = threading.Lock()
                self._event = threading.Event()

            def polite(self):
                with self._lock:
                    got = self._gate.acquire(blocking=False)
                    if got:
                        self._gate.release()
                    self._event.wait(timeout=0.01)
        """,
        select=["TL012"],
    )
    assert findings == []


def test_tl012_super_calls_are_not_rpcs(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        import threading

        class Base:
            def write(self, address):
                return address

        class Child(Base):
            def __init__(self):
                self._lock = threading.Lock()

            def write(self, address):
                with self._lock:
                    return super().write(address)
        """,
        select=["TL012"],
    )
    assert findings == []


# ---------------------------------------------------------------------------
# TL013: lock lifecycle
# ---------------------------------------------------------------------------


def test_tl013_distinguishes_creation_and_reassignment(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        import threading

        class Shifty:
            def __init__(self):
                self._lock = threading.Lock()

            def reset(self):
                self._lock = threading.Lock()

            def sprout(self):
                self._extra = threading.Lock()
        """,
        select=["TL013"],
    )
    messages = sorted(d.message for d in findings)
    assert len(messages) == 2
    assert any("reassigned" in m for m in messages)
    assert any("outside __init__" in m for m in messages)
