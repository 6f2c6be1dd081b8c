"""Static checks on the package source."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "weddle"
MODULES = sorted(SRC.glob("*.py"))
ROOT = SRC.parent.parent
# the package modules keep their bare ids; tests and demos are prefixed
SCRIPTS = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))


def test_modules_are_found():
    assert MODULES


@pytest.mark.parametrize("path", MODULES + SCRIPTS, ids=lambda path: (
    path.stem if path.parent == SRC else "%s/%s" % (path.parent.name, path.stem)))
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


def _imports_hashlib(node) -> bool:
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] == "hashlib" for a in node.names)
    return isinstance(node, ast.ImportFrom) and node.module == "hashlib"


def test_hashlib_only_as_the_seed_fallback():
    # hashlib loads OpenSSL's libcrypto: child_rng takes SHA-256 from the
    # interpreter's built-in module and imports hashlib only where that is missing
    found = []
    for path, tree in _trees("src/weddle"):
        fallback = {id(node) for handler in ast.walk(tree)
                    if isinstance(handler, ast.ExceptHandler)
                    and isinstance(handler.type, ast.Name) and handler.type.id == "ImportError"
                    for stmt in handler.body for node in ast.walk(stmt)}
        found += [(path.name, id(node) in fallback, [a.name for a in node.names])
                  for node in ast.walk(tree) if _imports_hashlib(node)]
    assert found == [("suite.py", True, ["sha256"])]


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
