"""Reports and dumps that must stay byte-identical: the quotient reports
(localization, homotopy colimit, colimit comparison, pi0) on the fixtures,
the classical Grothendieck construction and its Thomason comparison,
a short random suite and the suite at its defaults for seeds 0-3, which
run the simplicial space and its bisimplicial audit, the relative nerves
with their dumps, and the verification reports on every input that each
accepts.  The files under tests/golden/ are the reference outputs."""

import os

import pytest

from relnerve.cli import main

TESTS = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(TESTS, "golden")


def fixture(name):
    return os.path.join(TESTS, "fixtures", name + ".rnspec")


def inputs(*names):
    """(name, path) of the named fixtures; ``one_object_j`` is the spec
    kept beside the goldens."""
    return [(name, os.path.join(GOLDEN, name + ".rnspec")
             if name == "one_object_j" else fixture(name)) for name in names]


SSET = inputs("span", "interval_diagram_sharp", "interval_sharp",
              "one_object_j")
MARKED = inputs("interval_diagram_sharp", "interval_sharp")

# (golden name, arguments, writes a dump, exit code)
CASES = [
    ("localize_interval_sharp",
     ["build", "localize", "--input", fixture("interval_sharp")], True, 0),
    ("hocolim_span", ["build", "hocolim", "--input", fixture("span")], True,
     0),
    ("compare_j", ["compare", "--input",
                   os.path.join(GOLDEN, "one_object_j.rnspec")], False, 0),
    ("random_suite_seed0", ["random-suite", "--seed", "0", "--count", "3",
                            "--cap", "4"], False, 0),
] + [
    ("random_suite_defaults_seed%d" % seed,
     ["random-suite", "--seed", str(seed)], False, 0) for seed in range(4)
] + [
    ("compare_%s_%s" % (mode, name),
     ["compare", "--" + mode, "--input", fixture(name)], False, 0)
    for mode in ("colimit", "pi0")
    for name in ("span", "interval_diagram_sharp")
] + [
    ("build_%s_%s" % (target, name),
     ["build", target, "--input", path], True, 0)
    for target, accepted in (("relnerve", SSET), ("relnerve-direct", SSET),
                             ("marked-relnerve", MARKED))
    for name, path in accepted
] + [
    ("verify_%s_%s" % (target, name),
     ["verify", target, "--input", path], False, 0)
    for target in ("identities", "c4-iso", "fibers", "iota")
    for name, path in SSET
] + [
    # the sharp-marked intervals have marked edges that are not coCartesian
    ("verify_fibration_%s" % name, ["verify", "fibration", "--input", path],
     False, 1 if name in dict(MARKED) else 0)
    for name, path in inputs("span_cat") + MARKED
] + [
    ("%s_span_cat_cap%d" % (name, cap),
     args + ["--input", fixture("span_cat"), "--cap", str(cap)], False, 0)
    for name, args in (("build_groth-classic", ["build", "groth-classic"]),
                       ("compare_thomason", ["compare", "--thomason"]))
    for cap in (3, 4)] + [
    # torsion 2 in H_1 to H_4 on both sides of the comparison
    ("%s_z2_loop_cat_cap5" % name,
     args + ["--input", fixture("z2_loop_cat"), "--cap", "5"], False, 0)
    for name, args in (("build_groth-classic", ["build", "groth-classic"]),
                       ("compare_thomason", ["compare", "--thomason"]))]


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("name,args,dump,code", CASES,
                         ids=[c[0] for c in CASES])
def test_report_is_byte_identical(tmp_path, name, args, dump, code):
    out = tmp_path / "out.txt"
    extra = ["--out", str(out)]
    if dump:
        extra += ["--dump", str(tmp_path / "out.dump")]
    assert main(args + extra) == code
    assert out.read_bytes() == read(os.path.join(GOLDEN, name + ".txt"))
    if dump:
        assert (tmp_path / "out.dump").read_bytes() == \
            read(os.path.join(GOLDEN, name + ".dump"))
