"""Source hygiene: every name a module of the package imports is used
(``__init__.py`` is exempt; its imports are the package's re-exports), and
the compact-key format of mapping objects stays inside ``sset``."""

import ast
import os
import re

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src", "relnerve")


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


# the names that read or build compact keys (see ``sset.Exponential``)
KEY_FORMAT = ("compact_plan", "product_plan", "apply_plan", "compact_layout")


@pytest.mark.parametrize("name", sorted(
    n for n in os.listdir(SRC) if n.endswith(".py") and n != "sset.py"))
def test_compact_keys_stay_in_the_kernel(name):
    with open(os.path.join(SRC, name), encoding="utf-8") as fh:
        assert re.findall(r"\b(%s)\b" % "|".join(KEY_FORMAT), fh.read()) \
            == []
