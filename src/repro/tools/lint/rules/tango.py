"""Rules TL001/TL002: the Tango object protocol (paper section 3.1).

A Tango object is three things — an in-memory view, an apply upcall,
and an external interface of mutators and accessors that delegate to
the runtime's helpers. These rules check that external interfaces keep
to their side of the contract.
"""

from __future__ import annotations

import ast
from typing import Iterable, Set

from repro.tools.lint.engine import Diagnostic, ParsedModule, Rule, Severity
from repro.tools.lint.rules.common import (
    VIEW_READERS_EXEMPT,
    class_methods,
    dotted_name,
    is_view_writer,
    iter_self_writes,
    iter_tango_classes,
    ordered_nodes,
    self_attr,
    view_attributes,
)

#: Call targets that synchronize the view (or record a transactional
#: read) before an accessor may legally read view state.
_SYNC_CALLS = frozenset(
    {
        "self._query",
        "self.sync_to",
        "self._runtime.query_helper",
    }
)

#: Direct log appends that bypass update_helper.
_RAW_APPEND_CALLS = frozenset(
    {
        "self._runtime.streams.append",
        "self._runtime._streams.append",
    }
)


class ApplyOnlyMutation(Rule):
    """TL001: only the apply upcall may write the view."""

    rule_id = "TL001"
    title = "apply-only view mutation"
    severity = Severity.ERROR
    paper_section = "§3.1"
    rationale = (
        "The view must be modified only by the Tango runtime via the "
        "apply upcall, never by application threads running mutators or "
        "accessors — otherwise replicas diverge from the log. View "
        "attributes are inferred as exactly the state written by "
        "apply (and its _apply_<op> handlers)/load_checkpoint; writes to them from any other method "
        "(except __init__, which builds the empty view) are flagged, "
        "including in-place container mutations."
    )

    def check(self, module: ParsedModule) -> Iterable[Diagnostic]:
        for cls in iter_tango_classes(module.tree):
            view = view_attributes(cls)
            if not view:
                continue
            for name, fn in class_methods(cls).items():
                if is_view_writer(name):
                    continue
                for node, attr, kind in iter_self_writes(fn):
                    if attr not in view:
                        continue
                    verb = {
                        "assign": "assigns",
                        "subscript": "writes into",
                        "call": "mutates",
                    }[kind]
                    yield self.diag(
                        module,
                        node,
                        f"{cls.name}.{name} {verb} view attribute "
                        f"'self.{attr}'; only apply/load_checkpoint may "
                        f"write the view (route changes through "
                        f"update_helper)",
                    )


class SyncBeforeRead(Rule):
    """TL002: accessors sync first; mutators route through the runtime."""

    rule_id = "TL002"
    title = "accessors sync before reading the view"
    severity = Severity.ERROR
    paper_section = "§3.1 Fig. 3"
    rationale = (
        "Accessors must call query_helper (via self._query or sync_to) "
        "before returning a function over the view, so reads are "
        "linearizable (or recorded in the transaction's read set). A "
        "public method that reads a view attribute before any sync call "
        "returns arbitrarily stale state. Mutators must reach the log "
        "through update_helper, never by appending to the stream layer "
        "directly, or updates bypass transaction buffering and batching."
    )

    def check(self, module: ParsedModule) -> Iterable[Diagnostic]:
        for cls in iter_tango_classes(module.tree):
            view = view_attributes(cls)
            methods = class_methods(cls)
            for name, fn in methods.items():
                yield from self._check_raw_appends(module, cls, name, fn)
                if not view:
                    continue
                if name in VIEW_READERS_EXEMPT or name.startswith("_"):
                    # Private helpers run under a caller that already
                    # synced; the protocol binds the public interface.
                    continue
                yield from self._check_sync_order(module, cls, name, fn, view)

    def _check_sync_order(
        self,
        module: ParsedModule,
        cls: ast.ClassDef,
        name: str,
        fn: ast.FunctionDef,
        view: Set[str],
    ) -> Iterable[Diagnostic]:
        synced = False
        for node in ordered_nodes(fn):
            if isinstance(node, ast.Call):
                target = dotted_name(node.func)
                if target in _SYNC_CALLS:
                    synced = True
            elif (
                not synced
                and isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
            ):
                attr = self_attr(node)
                if attr in view:
                    yield self.diag(
                        module,
                        node,
                        f"{cls.name}.{name} reads view attribute "
                        f"'self.{attr}' before any sync call "
                        f"(self._query/sync_to/query_helper); the read "
                        f"is not linearizable",
                    )
                    return  # one finding per method is enough

    def _check_raw_appends(
        self,
        module: ParsedModule,
        cls: ast.ClassDef,
        name: str,
        fn: ast.FunctionDef,
    ) -> Iterable[Diagnostic]:
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                target = dotted_name(node.func)
                if target in _RAW_APPEND_CALLS:
                    yield self.diag(
                        module,
                        node,
                        f"{cls.name}.{name} appends to the stream layer "
                        f"directly ({target}); mutators must route "
                        f"through update_helper/self._update",
                    )
