"""Rules TL004/TL005: CORFU's storage-server protocol (paper section 2.2).

A CORFU storage node exposes a write-once address space fenced by
epochs: reconfiguration seals the old epoch, and "any client request
accompanied by the sealed epoch is rejected". Both properties are load
bearing — write-once is what lets chain replication arbitrate append
races, and the seal is what makes reconfiguration safe — and both are
one careless mutation away from being silently lost.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional, Set

from repro.tools.lint.engine import Diagnostic, ParsedModule, Rule, Severity
from repro.tools.lint.rules.common import (
    class_methods,
    iter_self_writes,
    ordered_nodes,
    self_attr,
)

#: The attribute holding a unit's sealed epoch.
_EPOCH_ATTR = "_epoch"

#: The attribute holding a unit's write-once page store.
_PAGES_ATTR = "_pages"

#: Methods allowed to install pages: the guarded write path, a page at
#: a time or a batch checked as one (trim state and prior occupancy,
#: under the unit lock). Recovery replay (rebuilding from frames the
#: guarded path produced) must carry an explicit suppression — it is the
#: one legitimate exception.
_GUARDED_WRITERS = frozenset({"write", "write_many"})

#: Dict methods that store into the page map.
_STORING_METHODS = frozenset({"update", "setdefault"})


def _is_epoch_keeper(cls: ast.ClassDef) -> bool:
    """True when *cls* maintains a sealed epoch (a storage-side server)."""
    for _node, attr, _kind in iter_self_writes(cls):
        if attr == _EPOCH_ATTR:
            return True
    return False


def _epoch_param(fn: ast.FunctionDef) -> Optional[str]:
    for arg in list(fn.args.posonlyargs) + list(fn.args.args) + list(
        fn.args.kwonlyargs
    ):
        if arg.arg == "epoch":
            return arg.arg
    return None


class EpochCheckBeforeMutation(Rule):
    """TL004: storage handlers check the sealed epoch before mutating."""

    rule_id = "TL004"
    title = "seal/epoch check before storage mutation"
    severity = Severity.ERROR
    paper_section = "§2.2, §5"
    rationale = (
        "Once a reconfiguration seals an epoch, no request from that "
        "epoch may alter a storage unit — otherwise a delayed write "
        "from the old configuration lands after the new projection was "
        "installed and the log forks. Every handler that accepts an "
        "epoch argument and mutates unit state must validate the epoch "
        "(call its _check_epoch helper or compare against self._epoch) "
        "before the first mutation."
    )

    def check(self, module: ParsedModule) -> Iterable[Diagnostic]:
        for cls in (
            n for n in ast.walk(module.tree) if isinstance(n, ast.ClassDef)
        ):
            if not _is_epoch_keeper(cls):
                continue
            for name, fn in class_methods(cls).items():
                if name == "__init__" or _epoch_param(fn) is None:
                    continue
                finding = self._first_unguarded_mutation(fn)
                if finding is not None:
                    yield self.diag(
                        module,
                        finding,
                        f"{cls.name}.{name} takes an epoch but mutates "
                        f"unit state before validating it; check the "
                        f"sealed epoch first (paper: sealed epochs must "
                        f"reject every request)",
                    )

    def _first_unguarded_mutation(
        self, fn: ast.FunctionDef
    ) -> Optional[ast.AST]:
        """The first self-write preceding any epoch validation, if any."""
        guarded = False
        writes = {
            id(node): node for node, _attr, _kind in iter_self_writes(fn)
        }
        for node in ordered_nodes(fn):
            if self._is_epoch_guard(node):
                guarded = True
            if guarded:
                return None
            if id(node) in writes:
                return node
        return None

    @staticmethod
    def _is_epoch_guard(node: ast.AST) -> bool:
        # A call to self._check_epoch(epoch) / self._check(epoch) ...
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if self_attr(node.func) is not None and "check" in node.func.attr:
                if any(
                    isinstance(a, ast.Name) and a.id == "epoch"
                    for a in node.args
                ):
                    return True
        # ... or any comparison that reads self._epoch.
        if isinstance(node, ast.Compare):
            for part in [node.left] + list(node.comparators):
                if self_attr(part) == _EPOCH_ATTR:
                    return True
        return False


class WriteOncePages(Rule):
    """TL005: pages are installed only by the guarded write path."""

    rule_id = "TL005"
    title = "write-once page installation"
    severity = Severity.ERROR
    paper_section = "§2.2"
    rationale = (
        "The write-once address space is what lets chain replication "
        "arbitrate append races without coordination: the first write "
        "wins and every later one must observe WrittenError. Installing "
        "a page anywhere but the guarded write() / write_many() path "
        "(which checks trim state and prior occupancy under the unit "
        "lock) can silently overwrite committed data, whether the "
        "store goes through self._pages, a local alias of it, or "
        "update()/setdefault(). Deletions (trims) are legal; stores "
        "are not."
    )

    def check(self, module: ParsedModule) -> Iterable[Diagnostic]:
        for cls in (
            n for n in ast.walk(module.tree) if isinstance(n, ast.ClassDef)
        ):
            for name, fn in class_methods(cls).items():
                if name in _GUARDED_WRITERS:
                    continue
                yield from self._page_stores(module, cls, name, fn)

    def _page_stores(
        self,
        module: ParsedModule,
        cls: ast.ClassDef,
        name: str,
        fn: ast.FunctionDef,
    ) -> Iterable[Diagnostic]:
        aliases = _page_aliases(fn)

        def is_pages(node: ast.AST) -> bool:
            return self_attr(node) == _PAGES_ATTR or (
                isinstance(node, ast.Name) and node.id in aliases
            )

        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _STORING_METHODS
                    and is_pages(func.value)
                ):
                    yield self.diag(
                        module,
                        node,
                        f"{cls.name}.{name} installs pages through "
                        f"{ast.unparse(func)}(...); only the guarded "
                        f"write path may store pages (write-once)",
                    )
                continue
            if not isinstance(node, (ast.Assign, ast.AugAssign)):
                continue
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Subscript) and is_pages(target.value):
                    yield self.diag(
                        module,
                        node,
                        f"{cls.name}.{name} installs a page "
                        f"({ast.unparse(target.value)}[...] = ...); only "
                        f"the guarded write path may store pages "
                        f"(write-once)",
                    )
                elif name != "__init__" and self_attr(target) == _PAGES_ATTR:
                    yield self.diag(
                        module,
                        node,
                        f"{cls.name}.{name} rebinds the page store "
                        f"(self.{_PAGES_ATTR} = ...); the write-once "
                        f"space may only be populated via write()",
                    )


def _page_aliases(fn: ast.FunctionDef) -> Set[str]:
    """Local names bound to ``self._pages`` anywhere in *fn*.

    Covers ``pages = self._pages`` and the element-wise tuple form
    ``prefix, pages = self._trimmed_prefix, self._pages``.
    """
    aliases: Set[str] = set()
    for node in ast.walk(fn):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            pairs = [(target, node.value)]
            if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                pairs = list(zip(target.elts, node.value.elts))
            for name, value in pairs:
                if isinstance(name, ast.Name) and self_attr(value) == _PAGES_ATTR:
                    aliases.add(name.id)
    return aliases
