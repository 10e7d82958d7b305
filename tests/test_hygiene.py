"""Source hygiene: every name a module of the package imports is used
(``__init__.py`` is exempt; its imports are the package's re-exports),
every function, class and method it defines is named somewhere, and from
``src/`` itself but for an allowlist, every ``def`` reads each parameter
it declares, no import sits inside a function, the compact-key format of
mapping objects and the layout of the face and degeneracy tables stay
inside ``sset``, and only ``fincat`` and ``specio`` call ``FinCategory``
directly."""

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
def _names_read(tops=("src", "tests", "demos", "bench")):
    """Every name read under the folders ``tops``, except by the package's
    ``__init__.py``, whose imports and ``__all__`` re-export."""
    out = set()
    for top in tops:
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
        assert unreferenced(fh.read(), _names_read()) == []


def test_unreferenced_definition_is_found():
    source = ("def used():\n    pass\n\n\ndef dead():\n    used()\n\n\n"
              "class K:\n    def __init__(self):\n        pass\n\n"
              "    def method(self):\n        pass\n")
    assert unreferenced(source, named(source) | {"K"}) == [(5, "dead"),
                                                           (13, "method")]


# the definitions in src/ that no code in src/ names, by why each stays
NAMED_ONLY_OUTSIDE_SRC = {
    "the benchmark binds it": [
        ("hocolim.py", "counit_w2"), ("hocolim.py", "eta_unit"),
        ("hocolim.py", "iota_fiber_bijective"),
        ("sset.py", "apply_vertex_map"), ("sset.py", "enumerate_maps")],
    "a fixture builder of the tests and demos": [
        ("bisset.py", "box_product"), ("fincat.py", "arrow_category"),
        ("fincat.py", "chain_category"), ("fincat.py", "constant_diagram"),
        ("fincat.py", "corepresentable_diagram"),
        ("fincat.py", "span_category"), ("fincat.py", "terminal_category")],
    "a reference of the tests": [
        ("classic.py", "classical_cocartesian"),
        ("fincat.py", "over_category"),
        ("pathspace.py", "path_space_zigzag")],
    "kernel API that the README documents": [
        ("homology.py", "homology_groups"),
        ("homology.py", "normalized_chains"), ("sset.py", "classifying_map"),
        ("sset.py", "invert_bijection"), ("sset.py", "pushout")],
    "a paper construction awaiting a command (ROADMAP item 8)": [
        ("bisset.py", "i1_star"), ("classic.py", "audit_double_category"),
        ("classic.py", "nerve_comparison"),
        ("marked.py", "unstraighten_diagram"),
        ("pathspace.py", "row_identification")],
}


def test_every_definition_is_named_from_src():
    found = []
    for name in sorted(n for n in os.listdir(SRC) if n.endswith(".py")):
        with open(os.path.join(SRC, name), encoding="utf-8") as fh:
            found += [(name, d) for _, d in unreferenced(
                fh.read(), _names_read(("src",)))]
    assert sorted(found) == sorted(
        d for ds in NAMED_ONLY_OUTSIDE_SRC.values() for d in ds)


def test_definition_named_only_outside_src_is_found():
    module = "def builder():\n    pass\n\n\ndef helper():\n    pass\n"
    caller, test = "from .m import helper\nhelper()\n", "builder()\n"
    src = named(module) | named(caller)
    assert unreferenced(module, src) == [(1, "builder")]
    assert unreferenced(module, src | named(test)) == []


def unread_parameters(source):
    """The parameters that a ``def`` of ``source`` declares and its body,
    nested functions included, never reads, with the line and name of the
    ``def``.  Lambdas are exempt: they fill a fixed protocol."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = fn.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [
                p for p in (a.vararg, a.kwarg) if p]
            read = {node.id for node in ast.walk(fn)
                    if isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)}
            found += [(fn.lineno, fn.name, p.arg) for p in params
                      if p.arg not in read]
    return found


# ``generated_size`` takes the same ``**sizes`` as ``build_generated``
UNREAD_ALLOWED = {"sset.py": [("generated_size", "k")]}


@pytest.mark.parametrize("name", sorted(
    n for n in os.listdir(SRC) if n.endswith(".py")))
def test_every_parameter_is_read(name):
    with open(os.path.join(SRC, name), encoding="utf-8") as fh:
        assert [(fn, arg) for _, fn, arg in unread_parameters(fh.read())] \
            == UNREAD_ALLOWED.get(name, [])


def test_unread_parameter_is_found():
    source = ("def op(n, i, d, key, new_key):\n    return key[n:i + d]\n\n\n"
              "def outer(a, b, *rest, c=1, **kw):\n    b = 2\n"
              "    def inner(x):\n        return a + kw[x]\n"
              "    return inner, lambda y, z: y\n")
    assert unread_parameters(source) == [(1, "op", "new_key"),
                                         (5, "outer", "b"),
                                         (5, "outer", "c"),
                                         (5, "outer", "rest")]


# the names that read or build compact keys (see ``sset.Exponential``)
KEY_FORMAT = ("compact_plan", "product_plan", "apply_plan", "compact_layout")


@pytest.mark.parametrize("name", sorted(
    n for n in os.listdir(SRC) if n.endswith(".py") and n != "sset.py"))
def test_compact_keys_stay_in_the_kernel(name):
    with open(os.path.join(SRC, name), encoding="utf-8") as fh:
        assert re.findall(r"\b(%s)\b" % "|".join(KEY_FORMAT), fh.read()) \
            == []


def layout_spellings(source):
    """The lines of ``source`` that lay out face tables by hand: a name
    with ``face`` in it set to a list that starts ``[None]``, the empty
    degree 0 that ``sset.operator_tables`` writes."""
    return [line.strip() for line in source.splitlines()
            if re.search(r"\w*face\w*\s*=\s*\[*\[None\]", line)]


@pytest.mark.parametrize("name", sorted(
    n for n in os.listdir(SRC) if n.endswith(".py") and n != "sset.py"))
def test_operator_layout_stays_in_the_kernel(name):
    with open(os.path.join(SRC, name), encoding="utf-8") as fh:
        assert layout_spellings(fh.read()) == []


def test_layout_spelling_is_found():
    source = ("faces = [None]\nhfaces = [None] + [t(n) for n in ns]\n"
              "vfaces = [[None] + [t(n, m)] for m in ms]\n"
              "boundaries = [None] + [t(n) for n in ns]\n"
              "faces = operator_tables(cap, table)[0]\n")
    assert layout_spellings(source) == [
        "faces = [None]", "hfaces = [None] + [t(n) for n in ns]",
        "vfaces = [[None] + [t(n, m)] for m in ms]"]


def nested_imports(source):
    """The lines of the imports that sit inside a function body."""
    return sorted(node.lineno for fn in ast.walk(ast.parse(source))
                  if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for node in ast.walk(fn)
                  if isinstance(node, (ast.Import, ast.ImportFrom)))


@pytest.mark.parametrize("name", sorted(
    n for n in os.listdir(SRC) if n.endswith(".py")))
def test_imports_sit_at_the_top_of_the_module(name):
    with open(os.path.join(SRC, name), encoding="utf-8") as fh:
        assert nested_imports(fh.read()) == []


def test_nested_import_is_found():
    source = ("import os\n\n\ndef f():\n    from .sset import compose\n"
              "    return compose\n\n\nclass K:\n    def g(self):\n"
              "        import sys\n")
    assert nested_imports(source) == [5, 11]


# a category is built from keys by ``fincat.keyed_category``; the explicit
# tables of ``fincat`` and the spec reader's are the other constructors
BUILDERS = ("fincat.py", "specio.py")


def category_constructions(source):
    """The lines of ``source`` that call ``FinCategory(``."""
    return [line.strip() for line in source.splitlines()
            if re.search(r"\bFinCategory\(", line)]


@pytest.mark.parametrize("name", sorted(
    n for n in os.listdir(SRC) if n.endswith(".py") and n not in BUILDERS))
def test_categories_are_built_from_keys(name):
    with open(os.path.join(SRC, name), encoding="utf-8") as fh:
        assert category_constructions(fh.read()) == []


def test_category_construction_is_found():
    source = ("class Cat(FinCategory):\n    pass\n\n\n"
              "total: FinCategory\nC = FinCategory(1, [0], [0], [0], t)\n"
              "D = keyed_category(objs, mors, s, t, u, c)[0]\n")
    assert category_constructions(source) == [
        "C = FinCategory(1, [0], [0], [0], t)"]
