"""Every top-level function, class and method in the package has a reader.

A definition is read when an expression of the package outside
`__init__.py`, or of the acceptance checks, names it: a top-level function
or class as a bare name or as an attribute, a method as an attribute only
(`x.name`), so that a local variable of the same name does not count.  A
unit test alone is not a reader, and nothing is exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "semiramsey").glob("*.py"))
READERS = [p for p in SOURCES if p.name != "__init__.py"] + [
    ROOT / "tests" / "test_acceptance.py"]


def read_names(sources: list[str]) -> tuple[set[str], set[str]]:
    """(bare, attributes): the names that expressions of the sources read
    as a bare name, and those they read as an attribute."""
    bare, attributes = set(), set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                bare.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return bare, attributes


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


def unread(source: str, reads: tuple[set[str], set[str]]) -> list[str]:
    bare, attributes = reads
    return [name for name in definitions(source)
            if name.rsplit(".", 1)[-1] not in
            (attributes if "." in name else bare | attributes)]


READS = read_names([p.read_text(encoding="utf-8") for p in READERS])


def test_sources_and_readers_are_found():
    assert len(SOURCES) >= 10 and all(p.is_file() for p in READERS)
    bare, attributes = READS
    assert {"max_homogeneous", "sturm_sequence", "univariate_divmod"} <= bare
    assert {"polarity", "kernel"} <= attributes


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_definition_has_a_reader(path):
    assert unread(path.read_text(encoding="utf-8"), READS) == []


def test_unread_definition_is_reported():
    source = ("def used():\n    pass\n"
              "def planted():\n    pass\n"
              "class Shape:\n"
              "    def __len__(self):\n        return 0\n"
              "    def area(self):\n        return self.side()\n"
              "    def side(self):\n        return 1\n"
              "    def color(self):\n        return 2\n")
    # A local variable named like a method does not read the method.
    reads = read_names([source, "used()\nShape()\ncolor = 'red'\n"])
    assert unread(source, reads) == ["planted", "Shape.area", "Shape.color"]
