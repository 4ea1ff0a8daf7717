"""tangolock's static layer: lock-discipline rules TL010-TL013.

The paper's correctness argument (sections 3-4) assumes each client's
runtime serializes log playback against local reads, and the CORFU
protocol assumes the sequencer and storage units mutate their state
atomically per RPC. Our reproduction enforces both with plain
``threading.Lock``s, which Python checks not at all: a read of
``self._pages`` outside ``with self._lock`` compiles, passes single-
threaded tests, and loses updates only under the multi-client
interleavings the fault-injection suite produces once in a thousand
runs. These rules make the lock discipline machine-checked.

The shared engine here is a *lock-set analysis* over each class:

1. **Lock attributes** are ``self.<attr>`` assigned a
   ``threading.Lock()`` / ``RLock()`` / ``Condition()`` in
   ``__init__`` (inherited lock attributes count for subclasses
   defined in the linted program).
2. **Held sets**: inside ``with self._lock:`` the lock is held.
   Private helpers (leading underscore) are assumed to run with the
   *intersection* of the locks held at every intra-class call site
   (``self.m(...)``, or ``m(...)`` through a local ``m = self.m``) —
   so a helper only ever invoked from inside critical sections is
   checked as if the lock were held, without annotation. A
   ``*_locked`` name suffix forces "all class locks held" as an
   explicit escape hatch. Public methods and dunders are entry points
   and start with nothing held. Helpers reachable only from
   ``__init__`` run before the object is shared and are exempt.
3. **Guarded attributes** (TL010): any attribute *written* under a
   lock is guarded by that lock; every other read/write of it must
   hold the guard. A ``*_locked`` helper with intra-class call sites
   writes under the locks held there, not under every class lock.
4. **Lock-order graph** (TL011): acquiring B while holding A adds the
   edge ``A -> B``. Edges follow intra-class calls and — where
   ``__init__`` makes the attribute type inferable (direct
   construction or an annotated parameter) — cross-class calls. Any
   cycle is a potential ABBA deadlock.
5. **Blocking under a lock** (TL012): ``time.sleep``, ``.wait()``
   without a timeout, blocking ``.acquire()``, and transport RPCs
   (the TL009 op vocabulary) inside a critical section stall every
   thread contending for the lock.
6. **Lock lifecycle** (TL013): a lock created outside ``__init__`` or
   reassigned after construction races its own users — two threads
   can hold "the" lock simultaneously because they hold different
   objects.

Like every tangolint rule, a hand-verified exception is silenced with
``# tangolint: disable=TL01x`` plus a justifying comment.

``build_lock_graph`` is also the backend of the ``repro-lockcheck``
CLI, which renders the inferred hierarchy for docs/CONCURRENCY.md.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.tools.lint.engine import Diagnostic, ParsedModule, ProgramRule, Severity
from repro.tools.lint.rules.common import (
    MUTATING_METHODS,
    import_aliases,
    self_attr,
)
from repro.tools.lint.rules.net import _RPC_OPS

#: Constructor names recognized as lock factories. ``InstrumentedLock``
#: is the runtime sanitizer's wrapper (repro.tools.lockcheck).
LOCK_FACTORIES = frozenset({"Lock", "RLock", "Condition", "InstrumentedLock"})

#: Methods never checked for guarded-attribute discipline: construction
#: happens before the object is shared, __repr__/__del__ are
#: best-effort debug paths where a torn read is acceptable.
EXEMPT_METHODS = frozenset({"__init__", "__repr__", "__del__"})

#: Name suffix declaring "caller holds every lock of this class".
HELD_SUFFIX = "_locked"

_EMPTY: FrozenSet[str] = frozenset()


def _lock_factory_name(node: ast.AST) -> Optional[str]:
    """``Lock`` for ``threading.Lock()`` / bare ``RLock()`` etc."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if (
        isinstance(func, ast.Attribute)
        and func.attr in LOCK_FACTORIES
        and isinstance(func.value, ast.Name)
    ):
        return func.attr
    if isinstance(func, ast.Name) and func.id in LOCK_FACTORIES:
        return func.id
    return None


def _annotation_class(node: Optional[ast.AST]) -> Optional[str]:
    """The class name an annotation refers to, if plainly spelled."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.Subscript):  # Optional[X] / "X | None" etc.
        return _annotation_class(node.slice)
    return None


@dataclasses.dataclass
class _Access:
    node: ast.AST
    attr: str
    write: bool
    kind: str  # "read" | "assign" | "subscript" | "call"
    locks: FrozenSet[str]


@dataclasses.dataclass
class _Acquire:
    node: ast.AST
    attr: str
    locks: FrozenSet[str]  # held just outside this ``with``
    inside: Optional[str] = None  # the nested function it sits in


@dataclasses.dataclass
class _CallSite:
    node: ast.AST
    receiver: Optional[str]  # None = self, else the self.<attr> receiver
    method: str
    locks: FrozenSet[str]
    inside: Optional[str] = None  # the nested function it sits in


@dataclasses.dataclass
class _Blocking:
    node: ast.AST
    what: str
    locks: FrozenSet[str]


@dataclasses.dataclass
class _LockCreation:
    node: ast.AST
    attr: str


class _MethodScan:
    """One pass over a method body, tracking the with-lock context."""

    def __init__(
        self,
        lock_attrs: Set[str],
        aliases: Dict[str, Tuple[str, Optional[str]]],
        typed_attrs: Optional[Set[str]] = None,
    ) -> None:
        self.lock_attrs = lock_attrs
        self.aliases = aliases
        #: Attributes whose type is a known program class: method calls
        #: on them are calls into that class, not container mutations
        #: (``self._streams.append(...)`` appends to the shared log, it
        #: does not mutate a list named ``_streams``).
        self.typed_attrs = typed_attrs or set()
        self.accesses: List[_Access] = []
        self.acquires: List[_Acquire] = []
        self.calls: List[_CallSite] = []
        self.blocking: List[_Blocking] = []
        self.lock_creations: List[_LockCreation] = []
        #: Local name -> ``self.<attr>`` it is bound to, so a call through
        #: a bound-method alias (``put = self._put; put(x)``) counts as an
        #: intra-class call made with the locks held at the call.
        self.bound: Dict[str, str] = {}
        #: The nested function (``def``) being walked, if any.
        self._inside: Optional[str] = None
        #: (name, locks held, nested function it sits in) of every call
        #: by bare name: how a nested function runs where it is called.
        self.local_calls: List[Tuple[str, FrozenSet[str], Optional[str]]] = []
        #: What the lock-order graph counts (filled by :meth:`scan`).
        self.order_acquires: List[_Acquire] = []
        self.order_calls: List[_CallSite] = []

    def scan(self, fn: ast.AST) -> "_MethodScan":
        for stmt in fn.body:  # type: ignore[attr-defined]
            self._visit(stmt, _EMPTY)
        self._credit_nested()
        return self

    def _credit_nested(self) -> None:
        """What the method acquires and calls, for the lock-order graph.

        A nested function's body runs where it is called, not where it
        is defined: its acquisitions and calls count once per call by
        name, under the locks held at that call, and nowhere if the
        method only hands the function on (a deferred callback).
        """
        self.order_acquires = [a for a in self.acquires if a.inside is None]
        self.order_calls = [c for c in self.calls if c.inside is None]
        pending = [(name, locks) for name, locks, inside in self.local_calls if inside is None]
        credited: Set[Tuple[str, FrozenSet[str]]] = set()
        while pending:
            name, held = pending.pop()
            if (name, held) in credited:
                continue
            credited.add((name, held))
            self.order_acquires.extend(
                dataclasses.replace(a, locks=a.locks | held, inside=None)
                for a in self.acquires
                if a.inside == name
            )
            self.order_calls.extend(
                dataclasses.replace(c, locks=c.locks | held, inside=None)
                for c in self.calls
                if c.inside == name
            )
            pending.extend(
                (callee, locks | held)
                for callee, locks, inside in self.local_calls
                if inside == name
            )

    # -- helpers ---------------------------------------------------------

    def _children(self, node: ast.AST, locks: FrozenSet[str]) -> None:
        for child in ast.iter_child_nodes(node):
            self._visit(child, locks)

    def _record_write(
        self, node: ast.AST, attr: str, kind: str, locks: FrozenSet[str]
    ) -> None:
        self.accesses.append(_Access(node, attr, True, kind, locks))

    def _targets_of(self, node: ast.stmt) -> List[ast.expr]:
        if isinstance(node, ast.Assign):
            return list(node.targets)
        if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            return [node.target]
        if isinstance(node, ast.Delete):
            return list(node.targets)
        return []

    def _flatten(self, target: ast.expr) -> Iterator[ast.expr]:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                yield from self._flatten(element)
        else:
            yield target

    # -- the walk --------------------------------------------------------

    def _visit(self, node: ast.AST, locks: FrozenSet[str]) -> None:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            inner = locks
            for item in node.items:
                self._visit(item.context_expr, locks)
                attr = self_attr(item.context_expr)
                if attr is not None and attr in self.lock_attrs:
                    self.acquires.append(
                        _Acquire(item.context_expr, attr, inner, self._inside)
                    )
                    inner = inner | {attr}
                if item.optional_vars is not None:
                    self._visit(item.optional_vars, locks)
            for stmt in node.body:
                self._visit(stmt, inner)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # Nested functions run later, from an unknown lock context;
            # analyze their bodies with nothing held. A ``def``'s body
            # is tagged with its name, so the lock-order graph counts it
            # only where the method calls it (_credit_nested).
            body = node.body if isinstance(node.body, list) else [node.body]
            outer = self._inside
            if not isinstance(node, ast.Lambda):
                self._inside = node.name
            try:
                for stmt in body:
                    self._visit(stmt, _EMPTY)
            finally:
                self._inside = outer
            return
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
            if isinstance(node, ast.Assign):
                bound = self_attr(node.value)
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        if bound is None:
                            self.bound.pop(target.id, None)
                        else:
                            self.bound[target.id] = bound
            for target in self._targets_of(node):
                for leaf in self._flatten(target):
                    attr = self_attr(leaf)
                    if attr is not None:
                        self._record_write(node, attr, "assign", locks)
                        value = getattr(node, "value", None)
                        factory = _lock_factory_name(value)
                        if factory is not None:
                            self.lock_creations.append(_LockCreation(node, attr))
                        continue
                    if isinstance(leaf, ast.Subscript):
                        attr = self_attr(leaf.value)
                        if attr is not None:
                            self._record_write(node, attr, "subscript", locks)
            self._children(node, locks)
            return
        if isinstance(node, ast.Call):
            self._classify_call(node, locks)
            self._children(node, locks)
            return
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and self_attr(node) is not None
        ):
            self.accesses.append(_Access(node, node.attr, False, "read", locks))
            return
        self._visit_generic(node, locks)

    def _visit_generic(self, node: ast.AST, locks: FrozenSet[str]) -> None:
        self._children(node, locks)

    def _classify_call(self, node: ast.Call, locks: FrozenSet[str]) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in self.bound:
                self.calls.append(
                    _CallSite(node, None, self.bound[func.id], locks, self._inside)
                )
                return
            self.local_calls.append((func.id, locks, self._inside))
            target = self.aliases.get(func.id)
            if target == ("time", "sleep"):
                self.blocking.append(_Blocking(node, "time.sleep", locks))
            return
        if not isinstance(func, ast.Attribute):
            return
        method = func.attr
        receiver = func.value
        if isinstance(receiver, ast.Name) and receiver.id == "self":
            # Intra-class call: never an RPC; mutating-container methods
            # on self itself do not occur on lock-holding classes here.
            self.calls.append(_CallSite(node, None, method, locks, self._inside))
            return
        if (
            isinstance(receiver, ast.Call)
            and isinstance(receiver.func, ast.Name)
            and receiver.func.id == "super"
        ):
            # super().m() dispatches to self via the MRO — an intra-class
            # call for lock purposes, never an RPC.
            self.calls.append(_CallSite(node, None, method, locks, self._inside))
            return
        recv_attr = self_attr(receiver)
        if recv_attr is not None:
            self.calls.append(_CallSite(node, recv_attr, method, locks, self._inside))
            if method in MUTATING_METHODS and recv_attr not in self.typed_attrs:
                self._record_write(node, recv_attr, "call", locks)
        # Blocking classification applies to any non-self receiver.
        if method == "sleep":
            if isinstance(receiver, ast.Name) and self.aliases.get(
                receiver.id
            ) == ("time", None):
                self.blocking.append(_Blocking(node, "time.sleep", locks))
            return
        if method == "wait":
            has_timeout = bool(node.args) or any(
                kw.arg == "timeout" for kw in node.keywords
            )
            if not has_timeout:
                self.blocking.append(
                    _Blocking(node, "wait() without a timeout", locks)
                )
            return
        if method == "acquire":
            nonblocking = any(
                isinstance(arg, ast.Constant) and arg.value is False
                for arg in node.args[:1]
            ) or any(
                kw.arg == "blocking"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is False
                for kw in node.keywords
            )
            if not nonblocking:
                self.blocking.append(_Blocking(node, "blocking acquire()", locks))
            return
        if method in _RPC_OPS:
            self.blocking.append(_Blocking(node, f"RPC '{method}'", locks))


@dataclasses.dataclass
class _ClassAnalysis:
    module: ParsedModule
    node: ast.ClassDef
    name: str
    bases: List[str]
    methods: Dict[str, ast.AST]
    own_locks: Dict[str, ast.AST] = dataclasses.field(default_factory=dict)
    stray_locks: List[Tuple[ast.AST, str, str]] = dataclasses.field(
        default_factory=list
    )
    scans: Dict[str, _MethodScan] = dataclasses.field(default_factory=dict)
    own_attr_types: Dict[str, str] = dataclasses.field(default_factory=dict)
    # Resolved (inheritance-merged) views, filled by _Program:
    lock_attrs: Set[str] = dataclasses.field(default_factory=set)
    lock_owner: Dict[str, str] = dataclasses.field(default_factory=dict)
    attr_types: Dict[str, str] = dataclasses.field(default_factory=dict)
    guarded: Dict[str, Set[str]] = dataclasses.field(default_factory=dict)
    held: Dict[str, FrozenSet[str]] = dataclasses.field(default_factory=dict)
    write_held: Dict[str, FrozenSet[str]] = dataclasses.field(default_factory=dict)
    construction_only: Set[str] = dataclasses.field(default_factory=set)

    def is_entry(self, method: str) -> bool:
        if method.startswith("__") and method.endswith("__"):
            return True
        return not method.startswith("_")


def _base_names(cls: ast.ClassDef) -> List[str]:
    names = []
    for base in cls.bases:
        if isinstance(base, ast.Name):
            names.append(base.id)
        elif isinstance(base, ast.Attribute):
            names.append(base.attr)
    return names


def _own_methods(cls: ast.ClassDef) -> Dict[str, ast.AST]:
    return {
        node.name: node
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


class _Program:
    """Whole-program lock analysis shared by TL010-TL013."""

    def __init__(self, modules: Sequence[ParsedModule]) -> None:
        self.modules = list(modules)
        self.classes: List[_ClassAnalysis] = []
        #: Simple name -> analysis; names defined more than once are
        #: ambiguous and excluded from cross-class resolution.
        self.by_name: Dict[str, Optional[_ClassAnalysis]] = {}
        self._collect()
        self._resolve_locks()
        self._scan_methods()
        self._infer_held_sets()
        self._infer_guards()
        # Filled by _build_graph:
        self.acquires: Dict[Tuple[str, str], Set[str]] = {}
        self.graph = self._build_graph()

    # -- collection ------------------------------------------------------

    def _collect(self) -> None:
        for module in self.modules:
            aliases = import_aliases(module.tree)
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                analysis = _ClassAnalysis(
                    module=module,
                    node=node,
                    name=node.name,
                    bases=_base_names(node),
                    methods=_own_methods(node),
                )
                analysis._aliases = aliases  # type: ignore[attr-defined]
                self.classes.append(analysis)
                if node.name in self.by_name:
                    self.by_name[node.name] = None  # ambiguous
                else:
                    self.by_name[node.name] = analysis
        # Cheap pre-pass: where does each class create locks?
        for cls in self.classes:
            for method_name, fn in cls.methods.items():
                for stmt in ast.walk(fn):
                    if not isinstance(stmt, ast.Assign):
                        continue
                    if _lock_factory_name(stmt.value) is None:
                        continue
                    for target in stmt.targets:
                        attr = self_attr(target)
                        if attr is None:
                            continue
                        if method_name == "__init__":
                            cls.own_locks.setdefault(attr, stmt)
                        else:
                            cls.stray_locks.append(
                                (stmt, attr, "created outside __init__")
                            )

    def _lookup(self, name: str) -> Optional[_ClassAnalysis]:
        return self.by_name.get(name)

    def _resolve_locks(self) -> None:
        """Merge inherited lock attributes and attribute types."""

        def resolve(cls: _ClassAnalysis, seen: Set[str]) -> None:
            if cls.lock_owner or cls.name in seen:
                return
            seen.add(cls.name)
            for base_name in cls.bases:
                base = self._lookup(base_name)
                if base is None:
                    continue
                resolve(base, seen)
                for attr, owner in base.lock_owner.items():
                    cls.lock_owner.setdefault(attr, owner)
                for attr, type_name in base.attr_types.items():
                    cls.attr_types.setdefault(attr, type_name)
            for attr in cls.own_locks:
                cls.lock_owner[attr] = cls.name
            init = cls.methods.get("__init__")
            if init is not None:
                cls.own_attr_types = self._init_attr_types(init)
            for attr, type_name in cls.own_attr_types.items():
                cls.attr_types[attr] = type_name
            cls.lock_attrs = set(cls.lock_owner)

        for cls in self.classes:
            resolve(cls, set())

    def _init_attr_types(self, init: ast.AST) -> Dict[str, str]:
        """``self._x = ClassName(...)`` / annotated params -> attr type."""
        param_types: Dict[str, str] = {}
        args = init.args  # type: ignore[attr-defined]
        for arg in list(args.args) + list(args.kwonlyargs):
            type_name = _annotation_class(arg.annotation)
            if type_name is not None and self._lookup(type_name) is not None:
                param_types[arg.arg] = type_name
        types: Dict[str, str] = {}
        for stmt in ast.walk(init):
            if isinstance(stmt, ast.AnnAssign):
                attr = self_attr(stmt.target)
                type_name = _annotation_class(stmt.annotation)
                if (
                    attr is not None
                    and type_name is not None
                    and self._lookup(type_name) is not None
                ):
                    types[attr] = type_name
                continue
            if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
                continue
            attr = self_attr(stmt.targets[0])
            if attr is None:
                continue
            value = stmt.value
            if (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and self._lookup(value.func.id) is not None
            ):
                types[attr] = value.func.id
            elif isinstance(value, ast.Name) and value.id in param_types:
                types[attr] = param_types[value.id]
        return types

    # -- per-method scans ------------------------------------------------

    def _scan_methods(self) -> None:
        for cls in self.classes:
            if not cls.lock_attrs and not cls.stray_locks:
                continue
            aliases = cls._aliases  # type: ignore[attr-defined]
            typed = set(cls.attr_types)
            for name, fn in cls.methods.items():
                cls.scans[name] = _MethodScan(
                    cls.lock_attrs, aliases, typed
                ).scan(fn)

    # -- held-set inference ----------------------------------------------

    def _call_sites(
        self, cls: _ClassAnalysis
    ) -> Dict[str, List[Tuple[str, FrozenSet[str]]]]:
        sites: Dict[str, List[Tuple[str, FrozenSet[str]]]] = {}
        for caller, scan in cls.scans.items():
            for call in scan.calls:
                if call.receiver is None and call.method in cls.methods:
                    sites.setdefault(call.method, []).append((caller, call.locks))
        return sites

    @staticmethod
    def _held_fixpoint(
        cls: _ClassAnalysis,
        sites: Dict[str, List[Tuple[str, FrozenSet[str]]]],
        pin_locked: bool,
    ) -> Dict[str, FrozenSet[str]]:
        """Locks held on entry to each method; a ``*_locked`` method with
        call sites is inferred from them unless *pin_locked*."""
        all_locks = frozenset(cls.lock_attrs)
        inferred: List[str] = []
        held: Dict[str, FrozenSet[str]] = {}
        for name in cls.methods:
            if name.endswith(HELD_SUFFIX) and (pin_locked or name not in sites):
                held[name] = all_locks
            elif cls.is_entry(name) or name not in sites:
                held[name] = _EMPTY
            else:
                held[name] = all_locks  # optimistic; fixed point shrinks
                inferred.append(name)
        changed = True
        while changed:
            changed = False
            for name in inferred:
                merged: Optional[FrozenSet[str]] = None
                for caller, locks in sites[name]:
                    effective = locks | held.get(caller, _EMPTY)
                    merged = effective if merged is None else merged & effective
                merged = merged if merged is not None else _EMPTY
                if merged != held[name]:
                    held[name] = merged
                    changed = True
        return held

    def _infer_held_sets(self) -> None:
        for cls in self.classes:
            if not cls.scans:
                continue
            sites = self._call_sites(cls)
            cls.held = self._held_fixpoint(cls, sites, pin_locked=True)
            # Guard inference credits a write only with the locks held at
            # it: a ``*_locked`` helper runs under its callers' locks, not
            # every lock the class has (an inherited one it never takes).
            cls.write_held = self._held_fixpoint(cls, sites, pin_locked=False)
            # Helpers reachable only from construction run pre-sharing.
            construction: Set[str] = set()
            changed = True
            while changed:
                changed = False
                for name in cls.methods:
                    if name in construction or cls.is_entry(name):
                        continue
                    method_sites = sites.get(name)
                    if not method_sites:
                        continue
                    if all(
                        caller == "__init__" or caller in construction
                        for caller, _locks in method_sites
                    ):
                        construction.add(name)
                        changed = True
            cls.construction_only = construction

    # -- guarded-attribute inference -------------------------------------

    def _infer_guards(self) -> None:
        def own_guards(cls: _ClassAnalysis) -> Dict[str, Set[str]]:
            guards: Dict[str, Set[str]] = {}
            for name, scan in cls.scans.items():
                base_held = cls.write_held.get(name, _EMPTY)
                for access in scan.accesses:
                    if not access.write or access.attr in cls.lock_attrs:
                        continue
                    effective = (access.locks | base_held) & cls.lock_attrs
                    for lock in effective:
                        guards.setdefault(access.attr, set()).add(lock)
            return guards

        computed: Dict[str, Dict[str, Set[str]]] = {}

        def resolve(cls: _ClassAnalysis, seen: Set[str]) -> Dict[str, Set[str]]:
            if cls.name in computed:
                return computed[cls.name]
            if cls.name in seen:
                return {}
            seen.add(cls.name)
            merged: Dict[str, Set[str]] = {}
            for base_name in cls.bases:
                base = self._lookup(base_name)
                if base is None:
                    continue
                for attr, locks in resolve(base, seen).items():
                    merged.setdefault(attr, set()).update(
                        lock for lock in locks if lock in cls.lock_attrs
                    )
            for attr, locks in own_guards(cls).items():
                merged.setdefault(attr, set()).update(locks)
            merged = {attr: locks for attr, locks in merged.items() if locks}
            computed[cls.name] = merged
            return merged

        for cls in self.classes:
            cls.guarded = resolve(cls, set())

    # -- lock-order graph ------------------------------------------------

    def node_id(self, cls: _ClassAnalysis, lock_attr: str) -> str:
        owner = cls.lock_owner.get(lock_attr, cls.name)
        return f"{owner}.{lock_attr}"

    def _resolve_method(
        self, cls: _ClassAnalysis, method: str
    ) -> Optional[Tuple[str, str]]:
        """(class name, method) after walking the in-program MRO."""
        seen: Set[str] = set()
        queue = [cls.name]
        while queue:
            name = queue.pop(0)
            if name in seen:
                continue
            seen.add(name)
            candidate = self._lookup(name)
            if candidate is None:
                continue
            if method in candidate.methods:
                return (candidate.name, method)
            queue.extend(candidate.bases)
        return None

    def _build_graph(self) -> "LockGraph":
        # Transitive lock acquisitions per (class, method), global fixed
        # point across intra-class calls and typed cross-class calls.
        acquires: Dict[Tuple[str, str], Set[str]] = {}
        scanned = [
            (cls, name, scan)
            for cls in self.classes
            for name, scan in cls.scans.items()
        ]
        for cls, name, scan in scanned:
            direct = {self.node_id(cls, acq.attr) for acq in scan.order_acquires}
            acquires[(cls.name, name)] = direct
        changed = True
        while changed:
            changed = False
            for cls, name, scan in scanned:
                current = acquires[(cls.name, name)]
                before = len(current)
                for call in scan.order_calls:
                    target: Optional[Tuple[str, str]] = None
                    if call.receiver is None:
                        target = self._resolve_method(cls, call.method)
                    else:
                        type_name = cls.attr_types.get(call.receiver)
                        if type_name is not None:
                            owner = self._lookup(type_name)
                            if owner is not None:
                                target = self._resolve_method(owner, call.method)
                    if target is not None and target in acquires:
                        current |= acquires[target]
                if len(current) != before:
                    changed = True
        self.acquires = acquires

        graph = LockGraph()
        for cls in self.classes:
            for attr, stmt in cls.own_locks.items():
                graph.add_node(
                    f"{cls.name}.{attr}",
                    cls.module.path,
                    getattr(stmt, "lineno", 1),
                )
            for attr, locks in sorted(cls.guarded.items()):
                for lock in locks:
                    graph.guards.setdefault(
                        self.node_id(cls, lock), set()
                    ).add(f"{cls.name}.{attr}")
        for cls, name, scan in scanned:
            base_held = cls.held.get(name, _EMPTY)
            for acq in scan.order_acquires:
                effective = acq.locks | base_held
                target_id = self.node_id(cls, acq.attr)
                for lock in effective:
                    source_id = self.node_id(cls, lock)
                    if source_id != target_id:
                        graph.add_edge(
                            source_id,
                            target_id,
                            cls.module.path,
                            getattr(acq.node, "lineno", 1),
                        )
            for call in scan.order_calls:
                effective = call.locks | base_held
                if not effective:
                    continue
                if call.receiver is None:
                    target = self._resolve_method(cls, call.method)
                else:
                    type_name = cls.attr_types.get(call.receiver)
                    target = None
                    if type_name is not None:
                        owner = self._lookup(type_name)
                        if owner is not None:
                            target = self._resolve_method(owner, call.method)
                if target is None:
                    continue
                for target_id in sorted(acquires.get(target, ())):
                    for lock in effective:
                        source_id = self.node_id(cls, lock)
                        if source_id != target_id:
                            graph.add_edge(
                                source_id,
                                target_id,
                                cls.module.path,
                                getattr(call.node, "lineno", 1),
                            )
        return graph


class LockGraph:
    """The inferred lock-acquisition-order graph."""

    def __init__(self) -> None:
        self.nodes: Dict[str, Tuple[str, int]] = {}
        self.edges: Dict[Tuple[str, str], Tuple[str, int]] = {}
        self.guards: Dict[str, Set[str]] = {}

    def add_node(self, node_id: str, path: str, line: int) -> None:
        self.nodes.setdefault(node_id, (path, line))

    def add_edge(self, source: str, target: str, path: str, line: int) -> None:
        self.nodes.setdefault(source, ("", 0))
        self.nodes.setdefault(target, ("", 0))
        self.edges.setdefault((source, target), (path, line))

    def successors(self, node_id: str) -> List[str]:
        return sorted(t for (s, t) in self.edges if s == node_id)

    def cycles(self) -> List[List[str]]:
        """Strongly connected components with a cycle, sorted."""
        index: Dict[str, int] = {}
        lowlink: Dict[str, int] = {}
        on_stack: Set[str] = set()
        stack: List[str] = []
        counter = [0]
        components: List[List[str]] = []

        def strongconnect(node: str) -> None:
            index[node] = lowlink[node] = counter[0]
            counter[0] += 1
            stack.append(node)
            on_stack.add(node)
            for succ in self.successors(node):
                if succ not in index:
                    strongconnect(succ)
                    lowlink[node] = min(lowlink[node], lowlink[succ])
                elif succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if lowlink[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1 or (node, node) in self.edges:
                    components.append(sorted(component))

        for node in sorted(self.nodes):
            if node not in index:
                strongconnect(node)
        return sorted(components)

    def topological_order(self) -> Optional[List[str]]:
        """Kahn's ordering, or ``None`` when the graph has a cycle."""
        indegree = {node: 0 for node in self.nodes}
        for _source, target in self.edges:
            indegree[target] += 1
        ready = sorted(n for n, d in indegree.items() if d == 0)
        order: List[str] = []
        while ready:
            node = ready.pop(0)
            order.append(node)
            for succ in self.successors(node):
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    ready.append(succ)
            ready.sort()
        if len(order) != len(self.nodes):
            return None
        return order


_CACHE: Dict[Tuple[int, ...], _Program] = {}
_CACHE_LIMIT = 8


def analyze_program(modules: Sequence[ParsedModule]) -> _Program:
    """Run (or reuse) the lock analysis for this exact module set."""
    key = tuple(id(m) for m in modules)
    program = _CACHE.get(key)
    if program is None:
        program = _Program(modules)
        if len(_CACHE) >= _CACHE_LIMIT:
            _CACHE.pop(next(iter(_CACHE)))
        _CACHE[key] = program
    return program


def build_lock_graph(modules: Sequence[ParsedModule]) -> LockGraph:
    """Public entry point for the ``repro-lockcheck`` CLI."""
    return analyze_program(modules).graph


def _fmt_locks(locks: Iterable[str]) -> str:
    return ", ".join(sorted(f"self.{lock}" for lock in locks))


class GuardedAttributeDiscipline(ProgramRule):
    rule_id = "TL010"
    title = "Guarded attributes must be accessed under their lock"
    severity = Severity.ERROR
    paper_section = "§3.2 (the runtime serializes view access against playback)"
    rationale = (
        "Any attribute written inside `with self._lock` is inferred to be "
        "guarded by that lock; every other read or write of it must hold "
        "the same lock, or concurrent playback/RPC threads can observe "
        "torn state and lose updates. Private helpers inherit the "
        "intersection of the locks held at their intra-class call sites; "
        "a `*_locked` suffix asserts the caller holds every class lock."
    )

    def check_program(
        self, modules: Sequence[ParsedModule]
    ) -> Iterable[Diagnostic]:
        program = analyze_program(modules)
        for cls in program.classes:
            if not cls.lock_attrs:
                continue
            for name, scan in cls.scans.items():
                if name in EXEMPT_METHODS or name in cls.construction_only:
                    continue
                base_held = cls.held.get(name, _EMPTY)
                reported: Set[Tuple[int, str]] = set()
                for access in scan.accesses:
                    guards = cls.guarded.get(access.attr)
                    if not guards or access.attr in cls.lock_attrs:
                        continue
                    if (access.locks | base_held) & guards:
                        continue
                    line = getattr(access.node, "lineno", 1)
                    if (line, access.attr) in reported:
                        continue
                    reported.add((line, access.attr))
                    verb = "written" if access.write else "read"
                    yield self.diag(
                        cls.module,
                        access.node,
                        f"'{cls.name}.{access.attr}' is guarded by "
                        f"{_fmt_locks(guards)} but {verb} here without "
                        f"holding the lock",
                    )


class LockOrderAcyclicity(ProgramRule):
    rule_id = "TL011"
    title = "Lock acquisition order must be acyclic"
    severity = Severity.ERROR
    paper_section = "§4 (multiple clients interleave on the shared log)"
    rationale = (
        "Acquiring lock B while holding lock A orders A before B. If the "
        "whole-program acquisition graph has a cycle, two threads can "
        "each hold one lock of the cycle and wait on the other forever "
        "(the classic ABBA deadlock). Edges follow intra-class helper "
        "calls and statically-typed cross-class calls."
    )

    def check_program(
        self, modules: Sequence[ParsedModule]
    ) -> Iterable[Diagnostic]:
        program = analyze_program(modules)
        graph = program.graph
        by_path = {m.path: m for m in modules}
        for component in graph.cycles():
            members = set(component)
            witness_edges = sorted(
                (edge, where)
                for edge, where in graph.edges.items()
                if edge[0] in members and edge[1] in members
            )
            path, line = witness_edges[0][1]
            module = by_path.get(path)
            if module is None:
                continue
            chain = " -> ".join(component + [component[0]])
            detail = "; ".join(
                f"{s} -> {t} at {p}:{ln}"
                for (s, t), (p, ln) in witness_edges
            )
            anchor = ast.Pass()
            anchor.lineno = line  # type: ignore[attr-defined]
            anchor.col_offset = 0  # type: ignore[attr-defined]
            yield self.diag(
                module,
                anchor,
                f"potential deadlock: lock-order cycle {chain} ({detail})",
            )


class NoBlockingUnderLock(ProgramRule):
    rule_id = "TL012"
    title = "No blocking calls while holding a lock"
    severity = Severity.ERROR
    paper_section = "§2.1/§4.1 (RPC latency must not serialize unrelated work)"
    rationale = (
        "A transport RPC, `time.sleep`, an untimed `wait()`, or a "
        "blocking `acquire()` inside a critical section stalls every "
        "thread contending for that lock for the full (possibly "
        "fault-injected) network delay. Move the blocking call outside "
        "the `with` block, or suppress with a justification when the "
        "blocking is the point (e.g. a handoff protocol)."
    )

    def check_program(
        self, modules: Sequence[ParsedModule]
    ) -> Iterable[Diagnostic]:
        program = analyze_program(modules)
        for cls in program.classes:
            if not cls.lock_attrs:
                continue
            for name, scan in cls.scans.items():
                if name in cls.construction_only or name == "__init__":
                    continue
                base_held = cls.held.get(name, _EMPTY)
                for blocked in scan.blocking:
                    effective = blocked.locks | base_held
                    if not effective:
                        continue
                    yield self.diag(
                        cls.module,
                        blocked.node,
                        f"{blocked.what} while holding "
                        f"{_fmt_locks(effective)}; move the blocking "
                        f"call outside the critical section",
                    )


class LockLifecycleDiscipline(ProgramRule):
    rule_id = "TL013"
    title = "Locks are created once, in __init__"
    severity = Severity.ERROR
    paper_section = "§3.1 (per-object runtime state is fixed at construction)"
    rationale = (
        "A lock created outside __init__ or reassigned after "
        "construction races its own users: a thread synchronizing on "
        "the old object and a thread on the new one are both 'holding "
        "the lock' at once, silently voiding every guarantee the lock "
        "was meant to provide."
    )

    def check_program(
        self, modules: Sequence[ParsedModule]
    ) -> Iterable[Diagnostic]:
        program = analyze_program(modules)
        for cls in program.classes:
            for node, attr, why in cls.stray_locks:
                if attr in cls.lock_attrs:
                    # The attr also holds an __init__-created lock: this
                    # stray factory call replaces it.
                    why = "reassigned after construction"
                yield self.diag(
                    cls.module,
                    node,
                    f"lock attribute 'self.{attr}' {why}; create locks "
                    f"exactly once in __init__",
                )
            for name, scan in cls.scans.items():
                if name == "__init__":
                    continue
                reported: Set[int] = set()
                stray_lines = {
                    getattr(node, "lineno", 0)
                    for node, _attr, _why in cls.stray_locks
                }
                for access in scan.accesses:
                    if (
                        access.write
                        and access.kind == "assign"
                        and access.attr in cls.lock_attrs
                    ):
                        line = getattr(access.node, "lineno", 1)
                        if line in reported or line in stray_lines:
                            continue
                        reported.add(line)
                        yield self.diag(
                            cls.module,
                            access.node,
                            f"lock attribute 'self.{access.attr}' reassigned "
                            f"after construction; create locks exactly once "
                            f"in __init__",
                        )
