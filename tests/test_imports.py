"""Static checks of the package's imports, with the standard library's
ast module: every imported name is used, and no function imports."""

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


def test_the_checks_see_what_they_look_for():
    source = "import os\nimport numpy as np\nfrom x import a, b as c\n\ndef f():\n    import json\n    return np, c\n"
    assert unused_imports(source) == [(1, "os"), (3, "a"), (6, "json")]
    assert local_imports(source) == [6]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used_and_at_module_level(path):
    source = path.read_text()
    assert unused_imports(source) == []
    assert local_imports(source) == []
