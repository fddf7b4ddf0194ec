"""Every module-level import in the package is used by its module, every
private function, class or method is used somewhere in the package, and every
module-level name the package assigns is read in the package, its tests or
its benchmark.  A fresh `import cartanlim.cli` and one run of it stay off the
heavy stdlib modules they have no use for, OpenSSL's `hashlib` among them."""

import ast
import functools
import importlib.util
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from util import child_env

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cartanlim"
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


def references(tree: ast.AST, cls: str | None = None) -> Counter:
    """Count of (owner, name) over each name and attribute used in the tree.
    The owner of `x.name` is `x` when it is a plain name, with `self` and
    `cls` read as the enclosing class (`cls` at the root); it is None
    otherwise and for a bare name."""
    found, stack = Counter(), [(tree, cls)]
    while stack:
        node, cls = stack.pop()
        if isinstance(node, ast.ClassDef):
            cls = node.name
        if isinstance(node, ast.Name):
            found[None, node.id] += 1
        elif isinstance(node, ast.Attribute):
            owner = node.value.id if isinstance(node.value, ast.Name) else None
            found[cls if owner in ("self", "cls") else owner, node.attr] += 1
        stack.extend((child, cls) for child in ast.iter_child_nodes(node))
    return found


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_defs(tree: ast.Module):
    """(qualified name, class or None, node) of each module-level private
    function or class and each private method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and is_private(node.name):
            yield node.name, None, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and is_private(item.name):
                    yield f"{node.name}.{item.name}", node.name, item


def unreferenced_private_defs(sources: dict[str, str]) -> list[str]:
    """`module:name` of each private def whose name is used nowhere in the
    sources outside its own definition.  A method counts as used through
    `x._name` unless `x` names another class of the sources, so two classes
    with a method of the same name are checked apart."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    classes = {node.name for tree in trees.values() for node in tree.body if isinstance(node, ast.ClassDef)}
    everywhere = sum((references(tree) for tree in trees.values()), Counter())
    found = []
    for module, tree in trees.items():
        for qualname, cls, node in private_defs(tree):
            outside = everywhere - references(node, cls)
            owners = {owner for owner, name in outside if name == node.name}
            if cls is not None:
                owners = {owner for owner in owners if owner == cls or owner not in classes}
            if not owners:
                found.append(f"{module}:{qualname}")
    return found


def assigned_names(source: str) -> list[str]:
    """The names a module binds by assignment at its top level, dunders aside."""
    names = []
    for node in ast.parse(source).body:
        targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
        names += [leaf.id for target in targets for leaf in ast.walk(target) if isinstance(leaf, ast.Name)]
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


def read_names(source: str) -> set[str]:
    """Every name the source loads, loads as an attribute or imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def unread_assignments(sources: dict[str, str], readers: list[str]) -> list[str]:
    """`module:name` of each module-level assignment whose name no reader reads."""
    read = set().union(*map(read_names, readers))
    return [f"{module}:{name}" for module, source in sources.items() for name in assigned_names(source) if name not in read]


def test_checker_finds_an_unused_import():
    assert unused_imports("import os\nfrom . import a, b\nb.f(os)\n") == ["a"]


def test_checker_finds_an_unreferenced_private_def():
    sources = {
        "a": "def _loop():\n    return _loop()\n\ndef _used():\n    pass\n\nclass _Kept:\n    pass\n",
        "b": "from .a import _Kept\n\ndef f(x):\n    return x._used() or _Kept\n",
    }
    assert unreferenced_private_defs(sources) == ["a:_loop"]


def test_checker_finds_an_unreferenced_private_method():
    sources = {
        "a": (
            "class A:\n"
            "    @classmethod\n"
            "    def _make(cls):\n        return cls._make()\n"
            "    def _dead(self):\n        return self._dead()\n"
            "    def _helper(self):\n        pass\n"
            "class B:\n"
            "    @classmethod\n"
            "    def _make(cls):\n        pass\n"
        ),
        "b": "from .a import A, B\n\ndef f(x):\n    return A._make() or x._helper() or B\n",
    }
    assert unreferenced_private_defs(sources) == ["a:A._dead", "a:B._make"]


def test_checker_finds_an_unread_assignment():
    sources = {"a": "LIMIT = 3\nNAMES: tuple = ()\n_TABLE, _SPARE = {}, 0\n__version__ = '1'\n\ndef f():\n    return _TABLE\n"}
    readers = [*sources.values(), "from a import NAMES\n\ndef g(m):\n    m.LIMIT = 4\n"]
    assert unread_assignments(sources, readers) == ["a:LIMIT", "a:_SPARE"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_no_unreferenced_private_defs():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert unreferenced_private_defs(sources) == []


def test_no_unread_module_assignments():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    readers = [p.read_text(encoding="utf-8") for folder in ("src", "tests", "bench") for p in (ROOT / folder).rglob("*.py")]
    assert unread_assignments(sources, readers) == []


@functools.cache
def modules_of_a_cli_run() -> tuple[set[str], set[str]]:
    """The modules a fresh interpreter loads for `import cartanlim.cli` and
    one `bounds` run, and every module it holds afterwards.  The first set
    is diffed against the child's own start, so its `site` is left out."""
    code = (
        "import sys; start = set(sys.modules); import cartanlim.cli;"
        "assert cartanlim.cli.main(['bounds', '--k-range', '7:12']) == 0;"
        "print(*sorted(set(sys.modules) - start)); print(*sorted(sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, encoding="utf-8", timeout=120, env=child_env())
    assert proc.returncode == 0, proc.stderr
    loaded, held = proc.stdout.splitlines()[-2:]
    return set(loaded.split()), set(held.split())


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    loaded, _ = modules_of_a_cli_run()
    assert "cartanlim.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}


def test_cli_run_loads_no_openssl():
    # the input hash comes from the interpreter's own SHA-256 module when it has one
    _, held = modules_of_a_cli_run()
    assert "cartanlim.cli" in held
    if importlib.util.find_spec("_sha2") or importlib.util.find_spec("_sha256"):
        assert not held & {"hashlib", "_hashlib"}
