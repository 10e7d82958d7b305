"""Source hygiene: every name a module of the package imports is used
(``__init__.py`` is exempt; its imports are the package's re-exports),
every function, class and method it defines is named somewhere, and the
compact-key format of mapping objects stays inside ``sset``."""

import ast
import functools
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "relnerve")


def unused_imports(source):
    """The names ``source`` imports but never reads, with their lines."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "annotations":       # from __future__
                    imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("name", sorted(
    n for n in os.listdir(SRC) if n.endswith(".py") and n != "__init__.py"))
def test_every_import_is_used(name):
    with open(os.path.join(SRC, name), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def test_unused_import_is_found():
    source = "import os\nfrom .sset import compose, pushout\nos.sep\n" \
             "compose(1, 2)\n"
    assert unused_imports(source) == [(2, "pushout")]


def named(source):
    """The names ``source`` reads: variables, attributes, and strings that
    are identifiers (as ``getattr`` takes them)."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            out.add(node.value)
    return out


def unreferenced(source, names):
    """The top-level functions and classes of ``source`` and the methods of
    those classes, dunders exempt, that are not in ``names``, with their
    lines."""
    found = []
    for node in ast.parse(source).body:
        for d in [node] + (node.body if isinstance(node, ast.ClassDef)
                           else []):
            if isinstance(d, (ast.FunctionDef, ast.ClassDef)) and \
                    not re.fullmatch(r"__\w+__", d.name) and \
                    d.name not in names:
                found.append((d.lineno, d.name))
    return found


@functools.lru_cache(maxsize=None)
def _project_names():
    """Every name read in src/, tests/, demos/ and bench/, except by the
    package's ``__init__.py``, whose imports and ``__all__`` re-export."""
    out = set()
    for top in ("src", "tests", "demos", "bench"):
        for folder, _, files in os.walk(os.path.join(ROOT, top)):
            for f in files:
                path = os.path.join(folder, f)
                if f.endswith(".py") and path != os.path.join(
                        SRC, "__init__.py"):
                    with open(path, encoding="utf-8") as fh:
                        out |= named(fh.read())
    return out


@pytest.mark.parametrize("name", sorted(
    n for n in os.listdir(SRC) if n.endswith(".py")))
def test_every_definition_is_referenced(name):
    with open(os.path.join(SRC, name), encoding="utf-8") as fh:
        assert unreferenced(fh.read(), _project_names()) == []


def test_unreferenced_definition_is_found():
    source = ("def used():\n    pass\n\n\ndef dead():\n    used()\n\n\n"
              "class K:\n    def __init__(self):\n        pass\n\n"
              "    def method(self):\n        pass\n")
    assert unreferenced(source, named(source) | {"K"}) == [(5, "dead"),
                                                           (13, "method")]


# the names that read or build compact keys (see ``sset.Exponential``)
KEY_FORMAT = ("compact_plan", "product_plan", "apply_plan", "compact_layout")


@pytest.mark.parametrize("name", sorted(
    n for n in os.listdir(SRC) if n.endswith(".py") and n != "sset.py"))
def test_compact_keys_stay_in_the_kernel(name):
    with open(os.path.join(SRC, name), encoding="utf-8") as fh:
        assert re.findall(r"\b(%s)\b" % "|".join(KEY_FORMAT), fh.read()) \
            == []
