"""Shared AST helpers for tangolint rules.

Most rules reason about the same shapes: "is this class a Tango
object?", "which attributes form its view?", "does this statement write
``self.<attr>``?". Centralizing the answers keeps the rules short and
makes them agree with each other.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

#: Base-class names that mark a replicated data structure. Detection is
#: name-based (static analysis cannot resolve imports), so subclassing
#: must name the base directly — which every object in this codebase
#: and the paper's examples does.
TANGO_BASE_NAMES = frozenset({"TangoObject"})

#: The only methods allowed to write view attributes (section 3.1: the
#: apply upcall, checkpoint restoration, and construction of the empty
#: view), besides the op handlers the default apply calls.
VIEW_WRITERS = frozenset(
    {"__init__", "apply", "load_checkpoint", "load_checkpoint_delta"}
)

#: Name prefix of an op handler (``_apply_<op>``): part of the apply upcall.
OP_HANDLER_PREFIX = "_apply_"


def is_view_writer(name: str) -> bool:
    """True for the apply upcall, its op handlers and checkpoint loads."""
    return name in VIEW_WRITERS or name.startswith(OP_HANDLER_PREFIX)

#: Methods that may read the view without a preceding sync: the runtime
#: invokes them at controlled points (upcalls run under playback; the
#: constructor builds the empty view; __repr__ is a debug aid).
VIEW_READERS_EXEMPT = frozenset(
    {
        "__init__",
        "apply",
        "load_checkpoint",
        "load_checkpoint_delta",
        "get_checkpoint",
        "get_checkpoint_delta",
        "__repr__",
    }
)

#: Container methods that mutate their receiver in place.
MUTATING_METHODS = frozenset(
    {
        "append", "appendleft", "extend", "insert", "remove", "pop",
        "popleft", "popitem", "clear", "add", "discard", "update",
        "setdefault", "sort", "reverse",
    }
)


def dotted_name(node: ast.AST) -> Optional[str]:
    """``self._runtime.streams.append`` for the matching attribute chain."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def self_attr(node: ast.AST) -> Optional[str]:
    """The attribute name when *node* is exactly ``self.<attr>``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def iter_tango_classes(tree: ast.Module) -> Iterator[ast.ClassDef]:
    """Classes deriving (transitively, within this module) from TangoObject."""
    classes = [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
    tango_names: Set[str] = set(TANGO_BASE_NAMES)
    # Fixed-point over in-module inheritance chains.
    changed = True
    while changed:
        changed = False
        for cls in classes:
            if cls.name in tango_names:
                continue
            for base in cls.bases:
                name = base.id if isinstance(base, ast.Name) else (
                    base.attr if isinstance(base, ast.Attribute) else None
                )
                if name in tango_names:
                    tango_names.add(cls.name)
                    changed = True
                    break
    for cls in classes:
        if cls.name in tango_names - TANGO_BASE_NAMES:
            yield cls


def class_methods(cls: ast.ClassDef) -> Dict[str, ast.FunctionDef]:
    """Top-level (non-nested) methods of *cls* by name."""
    return {
        node.name: node
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _targets(node: ast.stmt) -> List[ast.expr]:
    if isinstance(node, ast.Assign):
        return list(node.targets)
    if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        return [node.target]
    if isinstance(node, ast.Delete):
        return list(node.targets)
    return []


def _flatten_target(target: ast.expr) -> Iterator[ast.expr]:
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _flatten_target(element)
    else:
        yield target


def iter_self_writes(
    fn: ast.AST,
) -> Iterator[Tuple[ast.AST, str, str]]:
    """Every write to ``self`` state inside *fn*.

    Yields ``(node, attr, kind)`` where *kind* is one of:

    - ``assign``    — ``self.attr = ...`` / ``self.attr += ...`` /
      ``del self.attr``;
    - ``subscript`` — ``self.attr[k] = ...`` / ``del self.attr[k]`` /
      ``self.attr[k] += ...``;
    - ``call``      — ``self.attr.append(...)`` and friends
      (:data:`MUTATING_METHODS`).
    """
    for node in ast.walk(fn):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
            for target in _targets(node):
                for leaf in _flatten_target(target):
                    attr = self_attr(leaf)
                    if attr is not None:
                        yield node, attr, "assign"
                        continue
                    if isinstance(leaf, ast.Subscript):
                        attr = self_attr(leaf.value)
                        if attr is not None:
                            yield node, attr, "subscript"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in MUTATING_METHODS:
                attr = self_attr(node.func.value)
                if attr is not None:
                    yield node, attr, "call"


def view_attributes(cls: ast.ClassDef) -> Set[str]:
    """The attributes forming the class's *view*.

    By the paper's construction the view is exactly the state the apply
    upcall (and checkpoint restoration) writes; anything else assigned
    on ``self`` is client-local soft state (writer tokens, cursors)
    that replay never touches.
    """
    attrs: Set[str] = set()
    for name, fn in class_methods(cls).items():
        if name in ("apply", "load_checkpoint") or name.startswith(OP_HANDLER_PREFIX):
            for _node, attr, _kind in iter_self_writes(fn):
                attrs.add(attr)
    return attrs


def ordered_nodes(fn: ast.AST) -> List[ast.AST]:
    """All descendant nodes of *fn* in source-text order."""
    nodes = [n for n in ast.walk(fn) if hasattr(n, "lineno")]
    nodes.sort(key=lambda n: (n.lineno, n.col_offset))
    return nodes


def import_aliases(tree: ast.Module) -> Dict[str, Tuple[str, Optional[str]]]:
    """Local name -> ``(module, attr)`` for every import in the file.

    ``import random as rnd`` maps ``rnd -> ("random", None)``;
    ``from random import getrandbits as g`` maps
    ``g -> ("random", "getrandbits")``.
    """
    table: Dict[str, Tuple[str, Optional[str]]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                table[local] = (alias.name, None)
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                local = alias.asname or alias.name
                table[local] = (node.module, alias.name)
    return table
