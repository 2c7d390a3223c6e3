"""Every name a module of the package imports is used, or listed in __all__."""
import ast
from pathlib import Path

import ffweyl

SRC = Path(ffweyl.__file__).parent


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
