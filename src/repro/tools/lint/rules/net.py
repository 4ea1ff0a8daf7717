"""Rule TL009: RPC call sites handle the full protocol error set.

Once ``repro.net`` turned every client↔node interaction into an RPC,
each public client operation became a place where three things can
happen that the application must never see raw: the epoch moved
(:class:`SealedError`), the node died (:class:`NodeDownError`), or the
network ate a message (:class:`RpcTimeout`). The client library's
public surface has to absorb all three with its retry/reconfigure
logic — ``CorfuClient.trim`` leaking ``SealedError`` to the GC during
a reconfiguration is exactly the bug this rule exists to catch.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Set

from repro.net.wire import RPC_OPS as _WIRE_OPS
from repro.tools.lint.engine import Diagnostic, ParsedModule, Rule, Severity
from repro.tools.lint.rules.common import class_methods

#: Method names that constitute node RPCs. Derived from the wire
#: registry (:data:`repro.net.wire.RPC_OPS` — the exact surface the
#: socket transport serves) plus the chain-replication wrapper ``fill``
#: that exists only client-side.
_RPC_OPS = _WIRE_OPS | frozenset({"fill"})

#: The protocol errors every public RPC-driving method must react to.
_REQUIRED = frozenset({"SealedError", "NodeDownError", "RpcTimeout"})

#: Handler names that cover the whole set at once.
_CATCH_ALLS = frozenset(
    {"CorfuError", "ReproError", "Exception", "BaseException"}
)


def _is_rpc_client(cls: ast.ClassDef) -> bool:
    """True for projection-aware client classes.

    The marker is a ``refresh_projection`` method: holding (and
    refreshing) a projection is what distinguishes a retry-owning
    client from the server classes and the stateless chain helper,
    which legitimately propagate protocol errors to their caller.
    """
    return "refresh_projection" in class_methods(cls)


def _handler_names(handler_type: Optional[ast.expr]) -> Set[str]:
    if handler_type is None:
        return set(_CATCH_ALLS)
    names: Set[str] = set()
    for node in (
        handler_type.elts if isinstance(handler_type, ast.Tuple) else [handler_type]
    ):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


class RpcErrorDiscipline(Rule):
    """TL009: public RPC call sites handle Sealed/NodeDown/RpcTimeout."""

    rule_id = "TL009"
    title = "RPC call sites handle SealedError/NodeDownError/RpcTimeout"
    severity = Severity.ERROR
    paper_section = "§2.2, §5"
    rationale = (
        "The client owns all retry logic: a sealed epoch means 'refresh "
        "the projection and retry', a dead node means 'reconfigure "
        "around it', a timeout means 'back off and retry "
        "idempotence-aware'. A public client operation that issues node "
        "RPCs without handlers for all three leaks transient "
        "infrastructure events to the application as exceptions — a "
        "trim racing a reconfiguration must not abort the caller's GC. "
        "Private helpers may propagate (their public caller holds the "
        "retry loop); public entry points may not. A retry driver — a "
        "method that runs a body it is handed — owns the handling for "
        "every body passed to it, so it must handle all three itself."
    )

    def check(self, module: ParsedModule) -> Iterable[Diagnostic]:
        for cls in (
            n for n in ast.walk(module.tree) if isinstance(n, ast.ClassDef)
        ):
            if not _is_rpc_client(cls):
                continue
            methods = class_methods(cls)
            drivers = {n: p for n, p in map(_driver_params, methods.values()) if p}
            for name, fn in methods.items():
                if name in drivers:
                    sites = _calls_with_tries(fn, (), drivers[name], ())
                    what = "runs its body"
                elif name.startswith("_"):
                    continue  # helpers propagate to the public retry loop
                else:
                    sites = _calls_with_tries(fn, _RPC_OPS, (), drivers)
                    what = "issues RPC"
                for call, enclosing_tries in sites:
                    covered: Set[str] = set()
                    for try_node in enclosing_tries:
                        for handler in try_node.handlers:
                            covered |= _handler_names(handler.type)
                    missing = sorted(_REQUIRED - covered)
                    if missing and not covered & _CATCH_ALLS:
                        yield self.diag(
                            module,
                            call,
                            f"{cls.name}.{name} {what} "
                            f"'{_callee(call)}' without handling "
                            f"{'/'.join(missing)}; public client operations "
                            f"must absorb sealed epochs, dead nodes, and "
                            f"timeouts via the standard retry path",
                        )


def _driver_params(fn: ast.FunctionDef):
    """``(name, parameters it calls in a loop)``: a method that calls a
    parameter attempt after attempt is a retry driver."""
    called = {
        node.func.id
        for loop in ast.walk(fn)
        if isinstance(loop, (ast.For, ast.While))
        for node in ast.walk(loop)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    return fn.name, frozenset(a.arg for a in fn.args.args[1:]) & called


def _callee(call: ast.Call) -> str:
    """``write`` for ``x.write(...)``, ``body`` for ``body(...)``."""
    return getattr(call.func, "attr", getattr(call.func, "id", ""))


def _calls_with_tries(fn: ast.FunctionDef, ops, bodies, drivers):
    """``(call, [enclosing Try nodes])`` for each RPC or body call.

    RPCs are calls through an attribute receiver (``x.write(...)``) of
    an op in *ops*; plain-name calls (``write(...)``) are local
    functions, not RPCs, unless they run a parameter in *bodies*
    (``body(...)``). A nested ``def`` or ``lambda`` is its own scope —
    the tries around its definition do not guard its body — and is
    skipped when handed to one of the retry *drivers*
    (``self._retry(..., body)``), which owns its handling.
    """
    handed = {
        arg.id if isinstance(arg, ast.Name) else arg
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in drivers
        for arg in node.args
    }
    sites: List = []

    def visit(node: ast.AST, stack: List[ast.Try]) -> None:
        if node is not fn and isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            if node in handed or getattr(node, "name", None) in handed:
                return
            stack = []
        if isinstance(node, ast.Try):
            for child in node.body:
                visit(child, [*stack, node])
            # Handler/else/finally bodies are NOT covered by their own
            # try: an exception raised there propagates.
            for child in node.handlers + node.orelse + node.finalbody:
                visit(child, stack)
            return
        if isinstance(node, ast.Call) and _callee(node) in (
            ops if isinstance(node.func, ast.Attribute) else bodies
        ):
            sites.append((node, stack))
        for child in ast.iter_child_nodes(node):
            visit(child, stack)

    visit(fn, [])
    return sites
