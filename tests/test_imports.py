"""Every top-level import in the package is used by its module."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "semiramsey")
                 .glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that no expression of
    the module reads and `__all__` does not export."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
        # Quoted annotations such as "MultivariatePolynomial" name types too.
        annotation = (
            node.annotation if isinstance(node, (ast.arg, ast.AnnAssign))
            else node.returns if isinstance(node, (ast.FunctionDef,
                                                   ast.AsyncFunctionDef))
            else None)
        for c in ast.walk(annotation) if annotation is not None else ():
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                expr = ast.parse(c.value, mode="eval")
                used.update(n.id for n in ast.walk(expr)
                            if isinstance(n, ast.Name))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_sources_are_found():
    assert len(SOURCES) >= 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_reported():
    source = ("from __future__ import annotations\n"
              "import math\nfrom dataclasses import dataclass, field\n"
              "from typing import Sequence\n"
              "__all__ = ['dataclass']\n"
              "def f(x: 'Sequence[int]') -> int:\n    return x\n"
              "doc = 'math'\n")
    assert unused_imports(source) == ["field (line 3)", "math (line 2)"]
