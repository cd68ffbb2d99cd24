"""Source rules of the library, read off its syntax trees: the runtime is
pure standard library, no float enters the computational path, and every
private helper is used by the library itself."""

import ast
import sys
from pathlib import Path

import stabletrop

SOURCES = sorted(Path(stabletrop.__file__).parent.glob("*.py"))


def imported_modules(tree):
    """The top-level package of every import; a relative import is one of
    `stabletrop`'s own modules."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module.split(".")[0] if node.level == 0 else "stabletrop"


def float_uses(tree):
    """Line numbers of float literals and of the name `float`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno
        elif isinstance(node, ast.Name) and node.id == "float":
            yield node.lineno


def private_helpers(tree):
    """Functions and methods whose name has a leading underscore and is
    not a dunder."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name.startswith("_"):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node


def referenced_names(tree):
    """Every name read as a variable or an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def unreferenced_helpers(paths):
    """The private helpers of the files that none of them references."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in paths}
    used = {name for tree in trees.values() for name in referenced_names(tree)}
    return [
        f"{path.name}:{node.lineno}: {node.name} unreferenced"
        for path, tree in trees.items()
        for node in private_helpers(tree)
        if node.name not in used
    ]


def source_violations(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    out = [
        f"{path.name}: imports {m}"
        for m in imported_modules(tree)
        if m != "stabletrop" and m not in sys.stdlib_module_names
    ]
    out += [f"{path.name}:{line}: float" for line in sorted(float_uses(tree))]
    return out


def test_library_imports_only_the_standard_library_and_uses_no_float():
    assert len(SOURCES) > 10
    assert [v for path in SOURCES for v in source_violations(path)] == []


def test_every_private_helper_is_used_by_the_library():
    # a helper that only tests call is dead code in the library
    assert unreferenced_helpers(SOURCES) == []


def test_source_rules_catch_a_violation(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import numpy as np\nfrom . import cycles\nfrom os import path\n"
        "x = 0.5\ny = float(1)\nz = 2j\n"
        "def _helper():\n    pass\n"
        "class A:\n    def __init__(self):\n        self._used()\n    def _used(self):\n        pass\n",
        encoding="utf-8",
    )
    assert source_violations(bad) == [
        "bad.py: imports numpy",
        "bad.py:4: float",
        "bad.py:5: float",
        "bad.py:6: float",
    ]
    assert unreferenced_helpers([bad]) == ["bad.py:7: _helper unreferenced"]
