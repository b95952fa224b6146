"""Every module-level import is used.

Parses each module under ``src/``, ``scripts/`` and ``tests/`` and reports
a name bound by a top-level ``import`` or ``from ... import`` that the
module never reads: not in code, not in an annotation (quoted ones
included) and not in ``__all__``.  A deletion that leaves an import behind
fails here.  Stdlib only.
"""

from __future__ import annotations

import ast
from pathlib import Path

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


def _read(tree: ast.Module) -> set[str]:
    """Every name the module reads, in code, in annotations and in ``__all__``."""
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
    read = _read(tree)
    return [
        f"line {node.lineno}: {name}"
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in _bound(node)
        if name not in read
    ]


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
