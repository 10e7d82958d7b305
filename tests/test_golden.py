"""Reports and dumps that must stay byte-identical: the quotient reports
(localization, homotopy colimit, colimit comparison, pi0) on the fixtures.
The files under tests/golden/ are the reference outputs."""

import os

import pytest

from relnerve.cli import main

TESTS = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(TESTS, "golden")


def fixture(name):
    return os.path.join(TESTS, "fixtures", name + ".rnspec")


CASES = [
    ("localize_interval_sharp",
     ["build", "localize", "--input", fixture("interval_sharp")], True),
    ("hocolim_span", ["build", "hocolim", "--input", fixture("span")], True),
    ("compare_j", ["compare", "--input",
                   os.path.join(GOLDEN, "one_object_j.rnspec")], False),
] + [
    ("compare_%s_%s" % (mode, name),
     ["compare", "--" + mode, "--input", fixture(name)], False)
    for mode in ("colimit", "pi0")
    for name in ("span", "interval_diagram_sharp")]


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("name,args,dump", CASES, ids=[c[0] for c in CASES])
def test_report_is_byte_identical(tmp_path, name, args, dump):
    out = tmp_path / "out.txt"
    extra = ["--out", str(out)]
    if dump:
        extra += ["--dump", str(tmp_path / "out.dump")]
    assert main(args + extra) == 0
    assert out.read_bytes() == read(os.path.join(GOLDEN, name + ".txt"))
    if dump:
        assert (tmp_path / "out.dump").read_bytes() == \
            read(os.path.join(GOLDEN, name + ".dump"))
