"""Every module-level import in the package is used by its module, and every
module-level private function or class is used somewhere in the package."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cartanlim"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def referenced_names(tree: ast.AST, skip: ast.AST) -> set[str]:
    """Names and attribute names used in the tree outside the subtree `skip`."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def unreferenced_private_defs(sources: dict[str, str]) -> list[str]:
    """`module:name` of each module-level private function or class whose
    name is used nowhere in the sources outside its own definition."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") or node.name.endswith("__"):
                continue
            if not any(node.name in referenced_names(other, node) for other in trees.values()):
                found.append(f"{module}:{node.name}")
    return found


def test_checker_finds_an_unused_import():
    assert unused_imports("import os\nfrom . import a, b\nb.f(os)\n") == ["a"]


def test_checker_finds_an_unreferenced_private_def():
    sources = {
        "a": "def _loop():\n    return _loop()\n\ndef _used():\n    pass\n\nclass _Kept:\n    pass\n",
        "b": "from .a import _Kept\n\ndef f(x):\n    return x._used() or _Kept\n",
    }
    assert unreferenced_private_defs(sources) == ["a:_loop"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_no_unreferenced_private_defs():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert unreferenced_private_defs(sources) == []
