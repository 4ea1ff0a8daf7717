"""Tier-1 self-check: the whole source tree satisfies every tangolint
rule.

This is the linter's reason to exist — the paper's invariants hold
machine-checkably across the codebase. A failure here means either a
protocol violation crept into ``src/repro`` or a rule regressed; both
block the build. Fix the code, or (for a hand-verified exception) add a
``# tangolint: disable=TL00X`` with a justifying comment.
"""

import os
import re
import tokenize
from collections import Counter

from repro.tools.discovery import iter_python_files
from repro.tools.lint import ALL_RULES, lint_paths, render_text
from repro.tools.lint.engine import _SUPPRESS_RE

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
SRC = os.path.join(ROOT, "src", "repro")


def test_source_tree_exists():
    assert os.path.isdir(SRC)


def test_full_rule_catalog_is_registered():
    ids = [rule.rule_id for rule in ALL_RULES]
    assert ids == sorted(ids)
    assert ids == [f"TL{n:03d}" for n in range(1, 14)]


def test_src_repro_is_lint_clean():
    findings = lint_paths([SRC])
    assert findings == [], "\n" + render_text(findings)


def test_every_rule_documents_itself():
    for rule in ALL_RULES:
        assert rule.title, rule.rule_id
        assert rule.rationale, rule.rule_id
        assert rule.paper_section, rule.rule_id


def _tree_suppressions():
    """(module, rule) -> count of ``# tangolint: disable`` comments."""
    found = Counter()
    for path in iter_python_files([SRC]):
        module = os.path.relpath(path, SRC).replace(os.sep, "/")
        with open(path, "rb") as f:
            for token in tokenize.tokenize(f.readline):
                if token.type != tokenize.COMMENT:
                    continue
                match = _SUPPRESS_RE.search(token.string)
                if match is not None:
                    for rule in (match.group("rules") or "*").split(","):
                        found[(module, rule.strip())] += 1
    return found


def _documented_suppressions():
    """The same count, from the table in docs/LINT.md's Suppressions."""
    with open(os.path.join(ROOT, "docs", "LINT.md"), encoding="utf-8") as f:
        text = f.read()
    section = text.split("\n## Suppressions", 1)[1].split("\n## ", 1)[0]
    documented = Counter()
    for line in section.splitlines():
        row = re.match(r"\|\s*`([^`]+\.py)`\s*\|([^|]*)\|", line)
        if row is None:
            continue
        for rule, times in re.findall(r"(TL\d{3})(?:\s*×(\d+))?", row.group(2)):
            documented[(row.group(1), rule)] += int(times or 1)
    return documented


def test_suppression_inventory_matches_docs():
    documented = _documented_suppressions()
    assert documented, "no suppression table in docs/LINT.md"
    assert _tree_suppressions() == documented
