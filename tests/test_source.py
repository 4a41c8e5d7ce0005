"""Static checks over the package source."""

import ast
from dataclasses import fields
from pathlib import Path

import pytest

from evidseg.backbone_unet import BackboneConfig
from evidseg.trainer import TrainConfig

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "evidseg").glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))


def unused_imports(source: str) -> list:
    """The names `source` imports but never reads, in import order;
    `from __future__` imports are directives, not names."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_scan_finds_an_unused_import():
    assert unused_imports("from __future__ import annotations\n"
                          "import os, json\nfrom a.b import c as d, e\n"
                          "json.dumps(e)\n") == ["os", "d"]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def attributes_read(source: str, skip_class: str) -> set:
    """The attribute names `source` loads, outside the body of the class
    named `skip_class`."""
    tree = ast.parse(source)
    skipped = {id(node) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
               and c.name == skip_class for node in ast.walk(c)}
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load) and id(node) not in skipped}


def test_scan_skips_the_declaring_class():
    assert attributes_read("class C:\n    def f(self):\n        self.a\n"
                           "def g(c):\n    c.b = c.d\n", "C") == {"d"}


@pytest.mark.parametrize("cls", [TrainConfig, BackboneConfig],
                         ids=lambda cls: cls.__name__)
def test_every_config_field_is_read(cls):
    # a setting that no code reads would be accepted and then ignored
    read = set().union(*(attributes_read(p.read_text(), cls.__name__)
                         for p in SOURCES))
    assert [f.name for f in fields(cls) if f.name not in read] == []



def unread_definitions(trees: list, defining) -> list:
    """The module-level functions and classes of the module tree
    `defining` that no tree in `trees` loads, by name or as an attribute,
    outside the definition itself."""
    loads = [n for tree in trees for n in ast.walk(tree)
             if isinstance(n, (ast.Name, ast.Attribute))
             and isinstance(n.ctx, ast.Load)]
    unread = []
    for node in defining.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            own = {id(n) for n in ast.walk(node)}
            if not any(getattr(n, "id", getattr(n, "attr", None)) == node.name
                       and id(n) not in own for n in loads):
                unread.append(node.name)
    return unread


def test_scan_finds_an_unread_definition():
    tree = ast.parse("def f():\n    return f()\ndef g():\n    pass\n"
                     "class C:\n    pass\nclass D:\n    pass\ng(), m.D\n")
    assert unread_definitions([tree], tree) == ["f", "C"]


def test_every_package_definition_is_used():
    # a helper that only tests call belongs in tests/, not in the package
    trees = {p: ast.parse(p.read_text()) for p in SOURCES + PERFBENCH}
    unread = {p.name: unread_definitions(list(trees.values()), trees[p])
              for p in SOURCES}
    assert {name: defs for name, defs in unread.items() if defs} == {}
