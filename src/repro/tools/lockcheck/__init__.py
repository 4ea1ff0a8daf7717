"""repro.tools.lockcheck: a runtime lock-order sanitizer.

tangolint's TL010–TL013 rules check lock discipline statically; this
package checks the same discipline *dynamically*, on whatever code the
test suite actually executes. It is the runtime half of the tangolock
toolchain (see ``docs/CONCURRENCY.md``).

The sanitizer is a lockdep-style monitor:

- every instrumented lock has a **site identity** — the class and
  source location that created it — so all ``StreamClient._lock``
  instances collapse onto one graph node, matching the static graph;
- each thread keeps a **stack of held sites**; acquiring lock B while
  holding lock A adds the order edge ``A -> B`` (first witness kept);
- an edge that closes a cycle in the order graph is a **violation**:
  two threads interleaving those paths can deadlock, even if this run
  happened not to;
- release records **hold-time stats** per site (count / total / max),
  so slow critical sections show up next to the graph.

Usage — opt in per process::

    from repro.tools import lockcheck
    mon = lockcheck.install()      # wraps threading.Lock/RLock for repro.*
    ...                            # run the workload
    mon.assert_acyclic()           # raises listing every cycle witnessed
    lockcheck.uninstall()

or set ``REPRO_LOCKCHECK=1`` and let ``tests/conftest.py`` install the
monitor for the whole pytest session. ``install()`` monkeypatches the
``threading.Lock`` / ``threading.RLock`` factories and wraps only locks
created by ``repro.*`` modules (never lockcheck itself, never the
interpreter's own machinery), so the sanitizer composes with arbitrary
test code at ~zero risk.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

# The real allocators, captured before install() can patch them. The
# monitor's own mutex must come from here: an instrumented internal
# lock would recurse into the monitor forever.
_real_lock = threading.Lock
_real_rlock = threading.RLock

_MONITOR: Optional["LockMonitor"] = None
_INSTALL_MU = _real_lock()


class LockSite:
    """Where a lock was created: the graph-node identity at runtime.

    *path* is the creating code's file as the interpreter names it, so a
    site can be matched with the static graph's ``Class.attr`` nodes
    (each recorded at its creation line).
    """

    __slots__ = ("label", "filename", "lineno", "path")

    def __init__(self, label: str, filename: str, lineno: int, path: str = "") -> None:
        self.label = label
        self.filename = filename
        self.lineno = lineno
        self.path = path

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<LockSite {self.label}>"


def _site_from_caller(label: Optional[str]) -> LockSite:
    """Identify the creating frame, skipping lockcheck's own frames."""
    frame = sys._getframe(1)
    while frame is not None and frame.f_globals.get("__name__", "").startswith(
        __name__
    ):
        frame = frame.f_back
    if frame is None:  # pragma: no cover - interpreter startup only
        return LockSite(label or "<unknown>", "<unknown>", 0)
    path = frame.f_code.co_filename
    filename = os.path.basename(path)
    lineno = frame.f_lineno
    if label is None:
        owner = frame.f_locals.get("self")
        cls = type(owner).__name__ if owner is not None else frame.f_code.co_name
        label = f"{cls}@{filename}:{lineno}"
    return LockSite(label, filename, lineno, path)


class _Held:
    __slots__ = ("site", "lock_id", "since", "depth")

    def __init__(self, site: LockSite, lock_id: int, since: float) -> None:
        self.site = site
        self.lock_id = lock_id
        self.since = since
        self.depth = 1


class LockMonitor:
    """Per-process order graph, violation log, and hold-time stats."""

    def __init__(self) -> None:
        self._mu = _real_lock()
        self._held: Dict[int, List[_Held]] = {}
        # (from_label, to_label) -> first witness {thread, to_site}
        self._edges: Dict[Tuple[str, str], Dict[str, str]] = {}
        # label -> the site it names (for mapping edges to static names)
        self._sites: Dict[str, LockSite] = {}
        self._violations: List[Dict[str, object]] = []
        # label -> [acquisitions, total_held_s, max_held_s]
        self._stats: Dict[str, List[float]] = {}

    # -- event intake (called by InstrumentedLock) -----------------------

    def note_acquired(self, site: LockSite, lock_id: int) -> None:
        tid = threading.get_ident()
        now = time.perf_counter()
        with self._mu:
            stack = self._held.setdefault(tid, [])
            for held in stack:
                if held.lock_id == lock_id:
                    held.depth += 1  # RLock re-entry: no new edge
                    return
            for held in stack:
                self._note_edge(held.site, site)
            stack.append(_Held(site, lock_id, now))

    def note_released(self, site: LockSite, lock_id: int) -> None:
        now = time.perf_counter()
        with self._mu:
            stack = self._held.get(threading.get_ident(), [])
            for i in range(len(stack) - 1, -1, -1):
                held = stack[i]
                if held.lock_id != lock_id:
                    continue
                held.depth -= 1
                if held.depth == 0:
                    del stack[i]
                    stats = self._stats.setdefault(site.label, [0, 0.0, 0.0])
                    elapsed = now - held.since
                    stats[0] += 1
                    stats[1] += elapsed
                    stats[2] = max(stats[2], elapsed)
                return

    def _note_edge(self, source: LockSite, target: LockSite) -> None:
        key = (source.label, target.label)
        if key in self._edges:
            return
        self._sites[source.label] = source
        self._sites[target.label] = target
        self._edges[key] = {
            "thread": threading.current_thread().name,
            "to_site": f"{target.filename}:{target.lineno}",
        }
        path = self._find_path(target.label, source.label)
        if path is not None:
            # target ⇝ source existed already; source -> target closes it.
            self._violations.append(
                {
                    "kind": "lock-order-cycle",
                    "cycle": path + [target.label],
                    "thread": threading.current_thread().name,
                }
            )

    def _find_path(self, start: str, goal: str) -> Optional[List[str]]:
        """A path start ⇝ goal in the edge graph (DFS), or None."""
        if start == goal:
            return [start]
        seen = {start}
        trail: List[Tuple[str, List[str]]] = [(start, [start])]
        while trail:
            node, path = trail.pop()
            for src, dst in self._edges:
                if src != node or dst in seen:
                    continue
                if dst == goal:
                    return path + [dst]
                seen.add(dst)
                trail.append((dst, path + [dst]))
        return None

    # -- reporting -------------------------------------------------------

    def edges(self) -> List[Tuple[str, str]]:
        with self._mu:
            return sorted(self._edges)

    def edge_sites(self) -> List[Tuple[LockSite, LockSite]]:
        """Each witnessed edge as its (held, acquired) creation sites."""
        with self._mu:
            return [(self._sites[a], self._sites[b]) for a, b in sorted(self._edges)]

    def violations(self) -> List[Dict[str, object]]:
        with self._mu:
            return list(self._violations)

    def hold_stats(self) -> Dict[str, Dict[str, float]]:
        with self._mu:
            return {
                label: {
                    "acquisitions": int(count),
                    "total_held_s": total,
                    "max_held_s": peak,
                }
                for label, (count, total, peak) in sorted(self._stats.items())
            }

    def report(self) -> Dict[str, object]:
        return {
            "edges": [list(edge) for edge in self.edges()],
            "violations": self.violations(),
            "hold_stats": self.hold_stats(),
        }

    def assert_acyclic(self) -> None:
        """Raise AssertionError describing every witnessed cycle."""
        violations = self.violations()
        if not violations:
            return
        lines = ["lockcheck: runtime lock-order violations:"]
        for v in violations:
            chain = " -> ".join(v["cycle"])  # type: ignore[arg-type]
            lines.append(f"  [{v['kind']}] {chain} (thread {v['thread']})")
        raise AssertionError("\n".join(lines))


class InstrumentedLock:
    """A Lock/RLock wrapper that reports to the active LockMonitor.

    Drop-in for the ``threading.Lock()`` / ``threading.RLock()`` call
    sites this repo uses (``acquire``/``release``/context manager).
    """

    def __init__(
        self,
        label: Optional[str] = None,
        reentrant: bool = False,
        monitor: Optional[LockMonitor] = None,
    ) -> None:
        self._inner = _real_rlock() if reentrant else _real_lock()
        self._site = _site_from_caller(label)
        self._monitor = monitor

    def _active_monitor(self) -> Optional[LockMonitor]:
        return self._monitor if self._monitor is not None else _MONITOR

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            mon = self._active_monitor()
            if mon is not None:
                mon.note_acquired(self._site, id(self))
        return acquired

    def release(self) -> None:
        mon = self._active_monitor()
        if mon is not None:
            mon.note_released(self._site, id(self))
        self._inner.release()

    def __enter__(self) -> "InstrumentedLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    def locked(self) -> bool:
        probe = getattr(self._inner, "locked", None)
        if probe is not None:
            return probe()
        return False  # pragma: no cover - RLock without locked()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<InstrumentedLock {self._site.label}>"


def monitor() -> Optional[LockMonitor]:
    """The installed monitor, or None when the sanitizer is off."""
    return _MONITOR


def install(existing: Optional[LockMonitor] = None) -> LockMonitor:
    """Activate the sanitizer: wrap lock creation for ``repro.*`` code.

    Idempotent; returns the active monitor. Locks created before
    install() stay uninstrumented — install early (conftest does).
    """
    global _MONITOR
    with _INSTALL_MU:
        if _MONITOR is not None:
            return _MONITOR
        _MONITOR = existing if existing is not None else LockMonitor()

        def _should_wrap() -> bool:
            name = sys._getframe(2).f_globals.get("__name__", "")
            return name.startswith("repro.") and not name.startswith(__name__)

        def _lock_factory():
            if _should_wrap():
                return InstrumentedLock()
            return _real_lock()

        def _rlock_factory():
            if _should_wrap():
                return InstrumentedLock(reentrant=True)
            return _real_rlock()

        threading.Lock = _lock_factory  # type: ignore[assignment]
        threading.RLock = _rlock_factory  # type: ignore[assignment]
        return _MONITOR


def uninstall() -> Optional[LockMonitor]:
    """Restore the real allocators; returns the retiring monitor."""
    global _MONITOR
    with _INSTALL_MU:
        retiring = _MONITOR
        _MONITOR = None
        threading.Lock = _real_lock  # type: ignore[assignment]
        threading.RLock = _real_rlock  # type: ignore[assignment]
        return retiring


__all__ = [
    "InstrumentedLock",
    "LockMonitor",
    "LockSite",
    "install",
    "monitor",
    "uninstall",
]
