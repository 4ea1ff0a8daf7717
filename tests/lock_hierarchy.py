"""docs/CONCURRENCY.md's lock hierarchy, read for the tests that check it.

The "The lock hierarchy" section holds TL011's static graph: the safe
order, the table of inferred edges and the lock count. The "Runtime
edges" section's table lists the edges only an in-process RPC makes,
which the runtime sanitizer witnesses and the static analysis cannot
see. Witnessed edges are named by matching each lock's creation site
with the static graph's ``Class.attr`` nodes.
"""

from __future__ import annotations

import os
import re
from typing import Dict, List, Set, Tuple

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
_UNITS = (
    "zero one two three four five six seven eight nine ten eleven twelve "
    "thirteen fourteen fifteen sixteen seventeen eighteen nineteen"
).split()
_NUMBER_WORDS = _UNITS + ["twenty"] + [f"twenty-{u}" for u in _UNITS[1:10]]
_ROW = re.compile(r"^\|\s*`([\w.]+)`\s*\|\s*`([\w.]+)`\s*\|", re.M)


def _section(title: str) -> str:
    with open(os.path.join(ROOT, "docs", "CONCURRENCY.md"), encoding="utf-8") as f:
        text = f.read()
    return text.split(f"\n## {title}", 1)[1].split("\n## ", 1)[0]


def documented_hierarchy() -> Tuple[List[str], Set[Tuple[str, str]], int]:
    """(safe order, inferred edges, lock count) as CONCURRENCY.md has them."""
    section = _section("The lock hierarchy")
    block = section.split("```", 2)[1]
    order = [name.strip() for name in block.split("<")]
    edges = set(_ROW.findall(section))
    count = re.search(r"(\S+) locks in all", section).group(1).lower()
    return order, edges, _NUMBER_WORDS.index(count)


def documented_runtime_edges() -> Set[Tuple[str, str]]:
    """The "Runtime edges" table: (held, acquired) pairs."""
    return set(_ROW.findall(_section("Runtime edges")))


def static_graph():
    """TL011's lock graph over ``src/repro``."""
    from repro.tools.discovery import iter_python_files
    from repro.tools.lint.engine import parse_module
    from repro.tools.lint.rules.concurrency import build_lock_graph

    src = os.path.join(ROOT, "src", "repro")
    modules = [parse_module(path)[0] for path in iter_python_files([src])]
    return build_lock_graph([m for m in modules if m is not None])


def undocumented_edges(monitor) -> List[str]:
    """The edges *monitor* witnessed that neither table lists.

    A lock whose creation site is no node of the static graph is
    named by its runtime label, which no table lists either.
    """
    names: Dict[Tuple[str, int], str] = {
        (os.path.realpath(path), line): node
        for node, (path, line) in static_graph().nodes.items()
        if path
    }
    documented = documented_hierarchy()[1] | documented_runtime_edges()

    def name(site) -> str:
        return names.get((os.path.realpath(site.path), site.lineno), site.label)

    found = {(name(held), name(acquired)) for held, acquired in monitor.edge_sites()}
    return sorted(f"{held} -> {acquired}" for held, acquired in found - documented)
