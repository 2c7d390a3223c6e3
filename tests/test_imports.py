"""Every name a module of the package imports is used, or listed in __all__,
and every function, class and method it defines is referenced somewhere."""
import ast
from pathlib import Path

import ffweyl

SRC = Path(ffweyl.__file__).parent
ROOT = Path(__file__).resolve().parent.parent


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    unused = {path.name: found for path in sorted(SRC.glob("*.py"))
              if (found := _unused_imports(ast.parse(path.read_text())))}
    assert not unused


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os\nfrom a import b, c as d\n__all__ = ['b']\n")
    assert _unused_imports(tree) == [(1, "os"), (2, "d")]


def _unreferenced(modules, trees):
    """Module-level functions and classes, and their non-dunder methods, of
    `modules` (name -> tree) that no tree in `trees` refers to.

    A function or class is referred to by a name, an attribute or an import;
    a method only by an attribute.  The dotted parts of a string constant
    count as both, so names listed as text count.
    """
    names, attrs = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.update(node.value.split("."))
                attrs.update(node.value.split("."))
    found = []
    for module, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name not in names | attrs:
                found.append(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                found += [f"{module}.{node.name}.{item.name}" for item in node.body
                          if isinstance(item, ast.FunctionDef)
                          and not (item.name.startswith("__") and item.name.endswith("__"))
                          and item.name not in attrs]
    return sorted(found)


def test_every_definition_is_referenced():
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    trees = [ast.parse(path.read_text())
             for top in ("src", "tests", "perfbench") for path in (ROOT / top).rglob("*.py")]
    assert not _unreferenced(modules, trees)


def test_the_check_sees_an_unreferenced_definition():
    module = ast.parse("def f(): pass\ndef g(): pass\ndef h(): pass\ndef k(): pass\n"
                       "class C:\n    def m(self): pass\n    def n(self): pass\n"
                       "    def w(self): pass\n    def __len__(self): return 0\n")
    user = ast.parse("from a import g\na.h()\nTIMED = ['a.k', 'C.w']\nm = C().n()\n")
    assert _unreferenced({"a": module}, [module, user]) == ["a.C.m", "a.f"]
