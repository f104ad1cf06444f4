"""Source hygiene: every imported name in src/esss and tests is read."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "esss").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source):
    """Names bound by an import and never read, in source order."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.append((node.lineno, alias.asname or alias.name.split(".")[0]))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [(line, name) for line, name in sorted(bound) if name not in read]


def test_unused_import_is_found():
    assert unused_imports("import os\nfrom a.b import c, d as e\nprint(d, e)\n") == [
        (1, "os"), (2, "c")]
    assert unused_imports("from __future__ import annotations\nimport a.b\na.b()\n") == []


def test_no_unused_imports():
    assert FILES
    found = [f"{path.relative_to(ROOT)}:{line} {name}"
             for path in FILES for line, name in unused_imports(path.read_text())]
    assert not found, "imported and never read:\n" + "\n".join(found)
