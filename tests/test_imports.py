"""Static checks of the package's imports, with the standard library's
ast module: every imported name is used, no function imports, and every
name in __all__ is defined or imported at module level."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "pgarcs"
# __init__.py imports names only to re-export them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def local_imports(source):
    tree = ast.parse(source)
    return sorted(
        inner.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    )


def undefined_exports(source):
    tree = ast.parse(source)
    bound = set()
    exported = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            bound.update(names)
            if "__all__" in names:
                exported = [elt.value for elt in node.value.elts]
    return sorted(name for name in exported if name not in bound)


def test_the_checks_see_what_they_look_for():
    source = "import os\nimport numpy as np\nfrom x import a, b as c\n\ndef f():\n    import json\n    return np, c\n"
    assert unused_imports(source) == [(1, "os"), (3, "a"), (6, "json")]
    assert local_imports(source) == [6]
    source = "from x import a\nB = 1\n\nclass C:\n    d = 2\n\ndef e():\n    f = 3\n\n__all__ = ['a', 'B', 'C', 'd', 'e', 'f', 'g']\n"
    assert undefined_exports(source) == ["d", "f", "g"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used_and_at_module_level(path):
    source = path.read_text()
    assert unused_imports(source) == []
    assert local_imports(source) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_exported_name_is_defined_at_module_level(path):
    assert undefined_exports(path.read_text()) == []
