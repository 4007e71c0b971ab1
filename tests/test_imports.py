"""AST scans of the package in place of a linter.

* Every top-level import is read somewhere in its module: an import whose
  bound name is never loaded and not re-exported through ``__all__`` fails,
  unless its line carries ``# noqa: F401`` (an import kept for code outside
  the module to find by name).
* No code checks a count by hand, that is, compares ``int(v)`` with ``v``:
  ``model._check_count`` is the one count check.
* No code outside ``model.py`` tests by hand whether a value is a number,
  that is, combines ``isinstance(v, bool)`` with ``isinstance(v, int)``,
  ``float`` or ``Real`` in one boolean expression: ``model._check_count``
  and ``model._check_positive`` are the number checks.
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


NUMBER_TYPES = {"int", "float", "Real"}


def isinstance_types(node):
    """The names in the type argument of ``isinstance(v, types)`` or
    ``not isinstance(v, types)``; empty for any other expression."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        node = node.operand
    if not (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        and len(node.args) == 2
    ):
        return set()
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node.args[1])
        if isinstance(sub, (ast.Name, ast.Attribute))
    }


def hand_written_number_checks(tree):
    """Line numbers of boolean expressions that test a value against
    ``bool`` and against a number type."""
    for node in ast.walk(tree):
        if isinstance(node, ast.BoolOp):
            tested = [isinstance_types(value) for value in node.values]
            if any("bool" in types for types in tested) and any(
                types & NUMBER_TYPES for types in tested
            ):
                yield node.lineno


@pytest.mark.parametrize("module", [name for name in MODULES if name != "model.py"])
def test_numbers_are_checked_only_in_model(module):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    lines = list(hand_written_number_checks(tree))
    assert not lines, (
        f"{module}: tests bool and a number type by hand at lines {lines}; "
        "use model._check_count or model._check_positive"
    )


def test_number_check_scan_sees_the_model_checks():
    with open(os.path.join(PACKAGE, "model.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    assert len(list(hand_written_number_checks(tree))) == 2
