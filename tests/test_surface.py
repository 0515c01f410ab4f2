"""Every public name has a use outside the tests.

A name in ``branchgames.__all__`` is kept only while one of these uses it:

- a package module other than ``__init__``, outside the name's own
  definition;
- a module under ``perfbench/``, as an attribute or a string (the tracer
  wraps module bindings by name);
- README's library tour.

A name whose last user is a test moves into that test as a reference
helper instead.
"""

import ast
from pathlib import Path

import branchgames
from test_readme import _tour

PACKAGE = Path(branchgames.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


class _Uses(ast.NodeVisitor):
    """Names read, and attributes taken, outside a definition of that name."""

    def __init__(self) -> None:
        self.names: set[str] = set()
        self._inside: list[str] = []

    def _definition(self, node) -> None:
        self._inside.append(node.name)
        self.generic_visit(node)
        self._inside.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def _use(self, name: str) -> None:
        if name not in self._inside:
            self.names.add(name)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self._use(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._use(node.attr)
        self.generic_visit(node)


def package_uses() -> set[str]:
    uses = _Uses()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            uses.visit(ast.parse(path.read_text()))
    return uses.names


def perfbench_uses() -> set[str]:
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def tour_uses() -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(_tour())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
    return names


def test_every_public_name_is_used_outside_the_tests():
    used = package_uses() | perfbench_uses() | tour_uses()
    assert sorted(set(branchgames.__all__) - used) == []


def test_a_name_used_only_in_its_own_definition_is_unused():
    uses = _Uses()
    uses.visit(ast.parse(
        "Alias = Fraction\n"
        "def walk():\n    return walk()\n"
        "class Node:\n    def of(cls) -> Node:\n        return Node()\n"
    ))
    assert uses.names == {"Fraction"}
