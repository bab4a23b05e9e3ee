"""Every name a module of the package imports is used in that module,
every private top-level helper is read by some module of the package,
every method and every public top-level function and class of the package
is read somewhere, every field of a dataclass or NamedTuple of the package
is read somewhere, only leibniz, assoc and xmod build a semidirect product,
and no function outside the command line takes a completion window.

Stdlib-``ast`` stand-ins for a linter's unused-import and dead-code
rules: an import counts as used when its bound name is read anywhere in
the module (a bare name or the base of an attribute access), and a
private (``_name``) top-level function or class counts as live when a
module reads its name (a bare name in its own module, an attribute, or a
name imported from its module).  A method or property of a top-level
class of the package counts as live when the package, the tests or the
benchmark read its name as an attribute; the special (``__name__``)
methods are exempt, as the language calls them.  A public top-level
function or class counts as live when they read its name, bare or as an
attribute; an import alone does not count.  A field (an annotated name
in the body of a dataclass or NamedTuple) counts as live when they read
its name as an attribute.  A presentation is
certified by one diamond-lemma pass, so no library function takes
``slack`` or ``cap``; ``cli`` only parses and echoes ``--slack``.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "leibnizx"


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


def dead_private_helpers(sources):
    """Sorted (module, line, name) of the private top-level functions and
    classes of ``sources`` ({module name: source}) that no module reads."""
    defined, read = [], set()
    for mod, source in sources.items():
        tree = ast.parse(source)
        defined += [(mod, node.lineno, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_")]
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add((mod, n.id))
            elif isinstance(n, ast.Attribute):
                read.update((m, n.attr) for m in sources)
            elif isinstance(n, ast.ImportFrom) and n.module:
                read.update((n.module.rsplit(".", 1)[-1], a.name)
                            for a in n.names)
    return sorted(t for t in defined if (t[0], t[2]) not in read)


def test_dead_helper_detector():
    sources = {
        "a": "def _used():\n    pass\n\n\ndef _left():\n    pass\n\n\n"
             "class _Wrapper:\n    pass\n\n\ndef _helper():\n    pass\n\n\n"
             "print(_used())\n",
        "b": "from .a import _helper\n\n\ndef _by_attr():\n    pass\n",
        "c": "from . import b\nprint(b._by_attr, _left)\n",
    }
    assert dead_private_helpers(sources) == [("a", 5, "_left"),
                                             ("a", 9, "_Wrapper")]


def test_no_dead_private_helpers():
    sources = {p.stem: p.read_text("utf-8") for p in sorted(SRC.glob("*.py"))}
    assert dead_private_helpers(sources) == []


def dead_methods(sources, readers):
    """Sorted (module, line, "Class.name") of the methods and properties
    of the top-level classes of ``sources`` ({module name: source}) whose
    name no source of ``readers`` (a list) reads as an attribute."""
    read = {n.attr for source in readers for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return sorted(
        (mod, node.lineno, "%s.%s" % (cls.name, node.name))
        for mod, source in sources.items()
        for cls in ast.parse(source).body if isinstance(cls, ast.ClassDef)
        for node in cls.body if isinstance(node, ast.FunctionDef)
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in read)


def test_dead_method_detector():
    sources = {"a": "class A:\n    def __init__(self):\n        self.x = 1\n"
                    "\n    @property\n    def dim(self):\n        return 1\n"
                    "\n    def used(self):\n        return self.dim\n"
                    "\n    def left(self):\n        pass\n\n\n"
                    "def f(a):\n    a.gone = 2\n    return a.used()\n"}
    assert dead_methods(sources, list(sources.values())) == [
        ("a", 12, "A.left")]


def test_no_dead_methods():
    sources = {p.stem: p.read_text("utf-8") for p in sorted(SRC.glob("*.py"))}
    readers = [p.read_text("utf-8") for d in ("src", "tests", "perfbench")
               for p in sorted((ROOT / d).rglob("*.py"))]
    assert dead_methods(sources, readers) == []


def unread_public_names(sources, readers):
    """Sorted (module, line, name) of the public top-level functions and
    classes of ``sources`` ({module name: source}) whose name no source of
    ``readers`` (a list) reads, as a bare name or as an attribute.  An
    import alone is no read."""
    read = set()
    for source in readers:
        for n in ast.walk(ast.parse(source)):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
    return sorted(
        (mod, node.lineno, node.name) for mod, source in sources.items()
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_") and node.name not in read)


def test_unread_public_name_detector():
    sources = {"a": "def used():\n    pass\n\n\ndef imported():\n    pass\n"
                    "\n\nclass Kept:\n    pass\n\n\nclass Left:\n    pass\n"
                    "\n\ndef _private():\n    pass\n"}
    readers = list(sources.values()) + [
        "from a import used, imported\nimport a\nused()\nprint(a.Kept)\n"]
    assert unread_public_names(sources, readers) == [("a", 5, "imported"),
                                                     ("a", 13, "Left")]


def test_no_unread_public_names():
    sources = {p.stem: p.read_text("utf-8") for p in sorted(SRC.glob("*.py"))}
    readers = [p.read_text("utf-8") for d in ("src", "tests", "perfbench")
               for p in sorted((ROOT / d).rglob("*.py"))]
    assert unread_public_names(sources, readers) == []


def _is_record(node):
    """A class decorated with ``dataclass``, bare or called, or derived
    from ``NamedTuple``."""
    marks = [d.func if isinstance(d, ast.Call) else d
             for d in node.decorator_list] + node.bases
    return any(getattr(m, "id", getattr(m, "attr", None))
               in ("dataclass", "NamedTuple") for m in marks)


def unread_fields(sources, readers):
    """Sorted (module, line, "Class.field") of the fields of the top-level
    dataclasses and NamedTuples of ``sources`` ({module name: source})
    whose name no source of ``readers`` (a list) reads as an attribute.
    A field is an annotated name in the class body."""
    read = {n.attr for source in readers for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return sorted(
        (mod, node.lineno, "%s.%s" % (cls.name, node.target.id))
        for mod, source in sources.items()
        for cls in ast.parse(source).body
        if isinstance(cls, ast.ClassDef) and _is_record(cls)
        for node in cls.body if isinstance(node, ast.AnnAssign)
        and isinstance(node.target, ast.Name) and node.target.id not in read)


def test_unread_field_detector():
    sources = {"a": "from dataclasses import dataclass, field\n"
                    "import dataclasses\nimport typing\n\n\n"
                    "@dataclass(frozen=True)\nclass A:\n    x: int\n"
                    "    gone: int\n    kept: dict = field(default=None)\n"
                    "\n\n@dataclasses.dataclass\nclass B:\n    y: int\n"
                    "\n\nclass T(typing.NamedTuple):\n    z: int\n"
                    "    w: int\n\n\nclass Plain:\n    v: int\n\n\n"
                    "def f(a, b, t):\n    a.gone = 1\n"
                    "    return a.x, a.kept, t.z\n"}
    assert unread_fields(sources, list(sources.values())) == [
        ("a", 9, "A.gone"), ("a", 15, "B.y"), ("a", 20, "T.w")]


def test_no_unread_fields():
    sources = {p.stem: p.read_text("utf-8") for p in sorted(SRC.glob("*.py"))}
    readers = [p.read_text("utf-8") for d in ("src", "tests", "perfbench")
               for p in sorted((ROOT / d).rglob("*.py"))]
    assert unread_fields(sources, readers) == []


SEMIDIRECT_NAMES = {"semidirect", "assoc_semidirect"}
SEMIDIRECT_HOMES = {"leibniz", "assoc", "xmod"}


def semidirect_calls(sources):
    """Sorted (module, line) of the calls of ``semidirect`` or
    ``assoc_semidirect``, by bare name or as an attribute, in the modules
    of ``sources`` ({module name: source}) other than leibniz, assoc and
    xmod: every other module reads q ⋊ p off ``xmod.xmod_to_cat1``."""
    return sorted(
        (mod, n.lineno) for mod, source in sources.items()
        if mod not in SEMIDIRECT_HOMES for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Call) and getattr(
            n.func, "id", getattr(n.func, "attr", None)) in SEMIDIRECT_NAMES)


def test_semidirect_call_detector():
    sources = {
        "xmod": "def xmod_to_cat1(act):\n    return semidirect(act)\n",
        "lm": "from . import assoc\n\n\ndef f(c, act):\n"
              "    g = semidirect\n    return c.total, "
              "assoc.assoc_semidirect(act)\n",
        "xul": "from .leibniz import semidirect\n\n\n"
               "def f(act, x):\n    return semidirect(act), x.semidirect\n",
    }
    assert semidirect_calls(sources) == [("lm", 6), ("xul", 5)]


def test_no_semidirect_outside_cat1():
    sources = {p.stem: p.read_text("utf-8") for p in sorted(SRC.glob("*.py"))}
    assert semidirect_calls(sources) == []


WINDOW_NAMES = {"slack", "cap"}


def window_parameters(source):
    """Sorted (line, function, parameter) of the functions and lambdas in
    source that take a parameter named in WINDOW_NAMES, positional,
    keyword-only or starred."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + \
                [p for p in (a.vararg, a.kwarg) if p is not None]
            out += [(node.lineno, getattr(node, "name", "<lambda>"), p.arg)
                    for p in params if p.arg in WINDOW_NAMES]
    return sorted(out)


def test_window_parameter_detector():
    src = ("def f(x, slack=2):\n    pass\n\n\nclass C:\n"
           "    def g(self, *, cap):\n        return lambda slack: slack\n"
           "\n\ndef h(slacker, capped, **kw):\n    pass\n")
    assert window_parameters(src) == [(1, "f", "slack"), (6, "g", "cap"),
                                      (7, "<lambda>", "slack")]


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py"))
                                  if p.name != "cli.py"],
                         ids=lambda p: p.name)
def test_no_window_parameters(path):
    assert window_parameters(path.read_text("utf-8")) == []
