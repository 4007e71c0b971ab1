"""AST scans of the package in place of a linter.

* Every top-level import is read somewhere in its module: an import whose
  bound name is never loaded and not re-exported through ``__all__`` fails,
  unless its line carries ``# noqa: F401`` (an import kept for code outside
  the module to find by name).
* No code checks a count by hand, that is, compares ``int(v)`` with ``v``:
  ``model._check_count`` is the one count check.
"""

import ast
import os

import pytest

PACKAGE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "evi_mmd"
)
MODULES = sorted(name for name in os.listdir(PACKAGE) if name.endswith(".py"))


def bound_imports(tree, lines):
    """(name, line) for each name a top-level import binds, skipping
    ``__future__`` imports and imports marked ``# noqa: F401``."""
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            yield name, node.lineno


def exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def read_names(tree):
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_top_level_imports(module):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        source = fh.read()
    tree = ast.parse(source)
    used = read_names(tree) | exported_names(tree)
    unused = [
        f"{name} (line {line})"
        for name, line in bound_imports(tree, source.splitlines())
        if name not in used
    ]
    assert not unused, f"{module}: unused imports {unused}"


def hand_written_count_checks(tree):
    """Line numbers of comparisons between ``int(v)`` and ``v``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        dumped = {ast.dump(operand) for operand in operands}
        if any(
            isinstance(operand, ast.Call)
            and isinstance(operand.func, ast.Name)
            and operand.func.id == "int"
            and len(operand.args) == 1
            and ast.dump(operand.args[0]) in dumped
            for operand in operands
        ):
            yield node.lineno


@pytest.mark.parametrize("module", MODULES)
def test_counts_are_checked_only_by_check_count(module):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    lines = list(hand_written_count_checks(tree))
    assert not lines, f"{module}: compares int(v) with v at lines {lines}; use model._check_count"
