"""Static checks on the package source."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "weddle"
# __init__.py imports names only to re-export them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def test_modules_are_found():
    assert MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds `a`
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def _trees(*dirs):
    root = SRC.parent.parent
    for d in dirs:
        for path in sorted((root / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(), str(path))


def test_svd_only_in_linalg():
    calls = [path.name for path, tree in _trees("src/weddle") if path.name != "linalg.py"
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "svd"]
    assert calls == []


def test_every_definition_is_referenced():
    defined = {(path.stem, node.name) for path, tree in _trees("src/weddle")
               for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and not (node.name.startswith("__") and node.name.endswith("__"))}
    used = set()
    for _, tree in _trees("src", "tests", "demos"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted((mod, name) for mod, name in defined if name not in used) == []
