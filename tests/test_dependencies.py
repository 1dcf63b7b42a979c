"""The package stays pure Python with no runtime dependencies, and holds
no code that only the tests run."""

from __future__ import annotations

import ast
import re
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _absolute_imports(path: Path) -> set[str]:
    """Top-level names of the absolute imports in one module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_package_imports_only_the_standard_library():
    sources = sorted((ROOT / "src" / "jetcert").glob("*.py"))
    assert sources
    for path in sources:
        outside = _absolute_imports(path) - set(sys.stdlib_module_names)
        assert not outside, f"{path.name} imports {sorted(outside)}"


def test_pyproject_declares_no_dependencies():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.findall(r"^dependencies\b.*$", text, re.MULTILINE) == ["dependencies = []"]


#: Public names that no command or benchmark runs, kept because they
#: cross-check the paper.
CROSS_CHECKS = {
    "counting_formula": "the closed-form unknown count against the enumerated ansatz",
    "twist_lowering_embedding": "maps twist-t solutions into twist t - 1 (monotonicity)",
    "case_m3_dim_counts": "the weight-3 count 186 + 480 = 666 < 1200",
    "two_over_tau1": "the constant 2/tau1, equal to 5 at the slope 92/135",
}


def _references(nodes) -> tuple[Counter, Counter]:
    """How often each identifier is read as an ``ast.Name`` and as the
    attribute of an ``ast.Attribute``, over the given nodes."""
    names, attributes = Counter(), Counter()
    for node in nodes:
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            attributes[node.attr] += 1
    return names, attributes


def _public_definitions(tree: ast.Module):
    """Each public module-level function or class, and each public method,
    with whether it is a method."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node, False
        for item in node.body if isinstance(node, ast.ClassDef) else ():
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                yield item, True


def test_every_public_definition_has_a_caller_outside_the_tests():
    """A public function, class or method is read somewhere in ``src/jetcert``
    outside its own body, or in the benchmark: a method as an attribute, any
    other definition as a name or as a module attribute."""
    sources = sorted((ROOT / "src" / "jetcert").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sources}
    readers = list(trees.values()) + [
        ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "perfbench").glob("*.py"))
    ]
    names, attributes = _references(n for tree in readers for n in ast.walk(tree))
    unread, defined = [], set()
    for path, tree in trees.items():
        for node, is_method in _public_definitions(tree):
            defined.add(node.name)
            own_names, own_attributes = _references(ast.walk(node))
            reads = attributes[node.name] - own_attributes[node.name]
            if not is_method:
                reads += names[node.name] - own_names[node.name]
            if reads == 0 and node.name not in CROSS_CHECKS:
                unread.append(f"{path.stem}.{node.name}")
    assert not unread, f"only the tests use {unread}"
    assert set(CROSS_CHECKS) <= defined
