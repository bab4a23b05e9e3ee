"""Every name a module of the package imports is used in that module.

A stdlib-``ast`` stand-in for a linter's unused-import rule: an import
counts as used when its bound name is read anywhere in the module (a
bare name or the base of an attribute access).
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "leibnizx"


def unused_imports(source):
    """Sorted (line, name) of the names source imports and never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for a in node.names:
                bound[a.asname or a.name] = node.lineno
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_detector():
    src = ("import os\nimport os.path\nfrom math import gcd, lcm as l\n"
           "from . import io\nprint(gcd(2, 4), io.x)\n")
    assert unused_imports(src) == [(2, "os"), (3, "l")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text("utf-8")) == []
