"""Source hygiene: every imported name in src/esss and tests is read, and
every top-level name of src/esss is read somewhere in src/esss, tests or
perfbench, and no class of src/esss changes an attribute in place."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "esss").glob("*.py"))
FILES = SRC + sorted((ROOT / "tests").glob("*.py"))
READERS = FILES + sorted((ROOT / "perfbench").glob("*.py"))


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


def top_level_names(source):
    """The defs, classes and constants a module binds at top level, dunders
    excluded, in source order."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        out.extend((node.lineno, name) for name in names
                   if not (name.startswith("__") and name.endswith("__")))
    return out


def read_names(source):
    """Every name a module loads, imports or uses as an attribute."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_unused_top_level_name_is_found():
    source = ("__all__ = ()\nLIMIT = 3\nUSED = 1\n"
              "def f(): return g()\ndef g(): pass\nclass K: pass\n")
    read = read_names(source) | read_names("from m import K\nimport m\nm.USED\n")
    assert [(line, name) for line, name in top_level_names(source) if name not in read] == [
        (2, "LIMIT"), (4, "f")]


def test_no_unused_top_level_names():
    read = set().union(*(read_names(path.read_text()) for path in READERS))
    found = [f"{path.relative_to(ROOT)}:{line} {name}"
             for path in SRC for line, name in top_level_names(path.read_text())
             if name not in read]
    assert not found, "defined at top level and never read:\n" + "\n".join(found)


def _is_self(node):
    return isinstance(node, ast.Name) and node.id in ("self", "cls")


def _sets_attribute(node):
    """An assignment to, or deletion of, an attribute of self or cls, by
    statement or by setattr / __setattr__."""
    if isinstance(node, ast.Attribute):
        return not isinstance(node.ctx, ast.Load) and _is_self(node.value)
    return (isinstance(node, ast.Call) and node.args and _is_self(node.args[0])
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            in ("setattr", "__setattr__", "delattr", "__delattr__"))


def mutable_classes(source):
    """(line, class) for each class that defines __init__ or sets or deletes
    an attribute of self or cls, in source order."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        init = any(isinstance(item, ast.FunctionDef) and item.name == "__init__"
                   for item in node.body)
        if init or any(_sets_attribute(sub) for sub in ast.walk(node)):
            out.append((node.lineno, node.name))
    return sorted(out)


def test_mutable_class_is_found():
    source = ("class A(tuple):\n    def f(self): return self.x\n"
              "class B:\n    def __init__(self): pass\n"
              "class C:\n    def f(self): self.n += 1\n"
              "class D:\n    @classmethod\n    def f(cls): cls.k = 1\n"
              "class E:\n    def f(self): del self.x\n"
              "class F(tuple):\n    def f(self): object.__setattr__(self, 'x', 1)\n"
              "class G:\n    def f(self): setattr(self, 'x', getattr(self, 'y'))\n")
    assert mutable_classes(source) == [
        (3, "B"), (5, "C"), (7, "D"), (10, "E"), (12, "F"), (14, "G")]


def test_no_class_changes_in_place():
    """Every esss value is a NamedTuple record, a tuple subclass or a
    builtin, so no class holds state that a method can change."""
    found = [f"{path.relative_to(ROOT)}:{line} {name}"
             for path in SRC for line, name in mutable_classes(path.read_text())]
    assert not found, "classes with __init__ or attribute assignment:\n" + "\n".join(found)
