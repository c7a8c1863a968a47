"""Every top-level function, class and method in the package has a reader.

A definition is read when an expression of the package outside
`__init__.py`, or of the acceptance checks, names it, as a bare name or as
an attribute.  A unit test alone is not a reader, and nothing is exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "semiramsey").glob("*.py"))
READERS = [p for p in SOURCES if p.name != "__init__.py"] + [
    ROOT / "tests" / "test_acceptance.py"]


def read_names(sources: list[str]) -> set[str]:
    """Every name that an expression of the sources reads, bare or as an
    attribute."""
    names = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def definitions(source: str) -> list[str]:
    """The module's top-level functions and classes, and its classes'
    methods as Class.method, dunders left out."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append(node.name)
        if isinstance(node, ast.ClassDef):
            out.extend(f"{node.name}.{item.name}" for item in node.body
                       if isinstance(item, ast.FunctionDef)
                       and not (item.name.startswith("__")
                                and item.name.endswith("__")))
    return out


def unread(source: str, reads: set[str]) -> list[str]:
    return [name for name in definitions(source)
            if name.rsplit(".", 1)[-1] not in reads]


READS = read_names([p.read_text(encoding="utf-8") for p in READERS])


def test_sources_and_readers_are_found():
    assert len(SOURCES) >= 10 and all(p.is_file() for p in READERS)
    assert {"max_homogeneous", "sturm_sequence", "univariate_divmod"} <= READS


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_definition_has_a_reader(path):
    assert unread(path.read_text(encoding="utf-8"), READS) == []


def test_unread_definition_is_reported():
    source = ("def used():\n    pass\n"
              "def planted():\n    pass\n"
              "class Shape:\n"
              "    def __len__(self):\n        return 0\n"
              "    def area(self):\n        return self.side()\n"
              "    def side(self):\n        return 1\n")
    reads = read_names([source, "used()\nShape()\n"])
    assert unread(source, reads) == ["planted", "Shape.area"]
