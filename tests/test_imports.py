"""Every import is used where it binds its names.

Parses each module under ``src/``, ``scripts/`` and ``tests/`` and reports
a name bound by an ``import`` or ``from ... import`` that its scope never
reads: not in code, not in an annotation (quoted ones included) and not in
``__all__``.  The scope of a module-level import is the module; that of an
import inside a function is that function, nested functions included.  A
deletion that leaves an import behind fails here.  Stdlib only.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for top in ("src", "scripts", "tests") for p in (ROOT / top).rglob("*.py"))


def _bound(node: ast.Import | ast.ImportFrom) -> list[str]:
    """The names an import statement binds."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [
        alias.asname or alias.name.split(".")[0]
        for alias in node.names
        if alias.name != "*"
    ]


def _imports(
    scope: ast.Module | ast.FunctionDef | ast.AsyncFunctionDef,
) -> Iterator[ast.Import | ast.ImportFrom]:
    """The import statements of a scope, leaving out those of the functions
    and classes inside it."""
    stack = list(scope.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def _read(tree: ast.AST) -> set[str]:
    """Every name read under ``tree``, in code, in annotations and in ``__all__``."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef, ast.AsyncFunctionDef)):
            for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
                if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                    names |= {n.id for n in ast.walk(ast.parse(annotation.value, mode="eval"))
                              if isinstance(n, ast.Name)}
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            names |= {c.value for c in ast.walk(node.value)
                      if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    return names


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    scopes = [tree] + [
        node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    unused = []
    for scope in scopes:
        read = _read(scope)
        unused += [
            (node.lineno, name)
            for node in _imports(scope)
            for name in _bound(node)
            if name not in read
        ]
    return [f"line {line}: {name}" for line, name in sorted(unused)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_module_level_imports_are_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_code_annotations_and_all():
    assert unused_imports("import os\nimport sys\nsys.exit()\n") == ["line 1: os"]
    assert unused_imports("import os.path\nos.sep\n") == []
    assert unused_imports("from a import b as c\nx: c\n") == []
    assert unused_imports("from a import b\ndef f(x: 'b') -> None: ...\n") == []
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []
    assert unused_imports("from __future__ import annotations\n") == []
    # An import inside a function must be read in that function.
    assert unused_imports("def f():\n    import os\n    return 1\n") == ["line 2: os"]
    assert unused_imports("def f():\n    import os\n    return os.sep\n") == []
    assert unused_imports(
        "def f():\n    if True:\n        from a import b\n    def g():\n        return b\n"
    ) == []
    assert unused_imports("def f():\n    import os\n\ndef g():\n    return os.sep\n") == [
        "line 2: os"
    ]
    assert unused_imports("import os\ndef f():\n    import sys\nos.sep\n") == ["line 3: sys"]
