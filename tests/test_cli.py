import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import relnerve.cli
from relnerve.cli import main
from relnerve.fincat import constant_diagram
from relnerve.specio import (CAP_BOUND, VALUE_BUDGET, SpecParseError,
                             parse_spec)
from relnerve.sset import discrete, generated_size

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture(name):
    return os.path.join(FIXTURES, name)


def run(args, tmp_path, name="out.txt"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out.read_text() if out.exists() else ""


def test_parse_span_fixture():
    with open(fixture("span.rnspec")) as fh:
        spec = parse_spec(fh.read())
    assert spec.kind == "sset" and spec.cap == 3
    assert spec.diagram.shape.n_objects == 3


def test_parse_error_unknown_directive():
    with pytest.raises(SpecParseError) as err:
        parse_spec("diagram sset\ncap 2\nobject a\nfrobnicate 1\n")
    assert "line 4" in str(err.value)


def test_parse_error_broken_composition_table():
    text = """
diagram sset
cap 2
object a b c
arrow p a b
arrow q b c
arrow r a c
# wrong composite: q o p should be r but points at an ill-typed morphism
compose q p p
value a point
value b point
value c point
map p constant 0
map q constant 0
map r constant 0
"""
    with pytest.raises(SpecParseError) as err:
        parse_spec(text)
    assert "not a category" in str(err.value)


def test_parse_error_nonfunctorial_diagram():
    text = """
diagram sset
cap 2
object a b c
arrow p a b
arrow q b c
arrow r a c
compose q p r
value a discrete 2
value b discrete 2
value c discrete 2
map p explicit
  row 0 1 0
  row 1 1 0
  row 2 1 0
end
map q identity
map r identity
"""
    with pytest.raises(SpecParseError) as err:
        parse_spec(text)
    assert "not functorial" in str(err.value)


def test_explicit_sset_block_roundtrip():
    text = """
diagram sset
cap 1
object a
value a explicit
  count 0 2
  count 1 3
  face 1 0 0 1 1
  face 1 1 0 1 0
  degen 0 0 0 1
end
"""
    spec = parse_spec(text)
    X = spec.diagram.values[0]
    assert X.counts == [2, 3]
    assert X.faces[1][0] == [0, 1, 1]


def test_cli_build_exit_codes(tmp_path):
    code, text = run(["build", "relnerve", "--input",
                      fixture("span.rnspec"), "--cap", "3"], tmp_path)
    assert code == 0
    assert "sizes relnerve 4 8 12 16" in text
    assert text.startswith("# relnerve report v1")


# the explicit block shown in the README
_README_SPEC = """diagram sset
cap 1
object a
value a explicit
  count 0 2
  count 1 3
  face 1 0 0 1 1
  face 1 1 0 1 0
  degen 0 0 0 1
end
"""

_TWO_POINTS = ("diagram sset\ncap 2\nobject a b\narrow f a b\n"
               "value a discrete 2\nvalue b discrete 2\n")

# marking lines refused at their own line, 5; delta 1 has edges 0..2
_MARKED = "diagram marked\ncap 2\nobject a\nvalue a delta 1\n"
_BAD_MARKINGS = (_MARKED + "marking zz sharp\n",
                 _MARKED + "marked zz 1\n",
                 _MARKED + "marked a -1\n",
                 _MARKED + "marked a 3\n",
                 _MARKED + "marking a bogus\n",
                 _MARKED.replace("cap 2", "cap 1") + "marking a natural\n",
                 _MARKED.replace("marked", "sset") + "marking a sharp\n")

with open(fixture("span_cat.rnspec")) as fh:
    _SPAN_CAT = fh.read()
# functor rows naming an object or a morphism their value does not have
_BAD_FUNCTOR_ROWS = tuple(_SPAN_CAT.replace("  obj u x\n", row) for row in
                          ("  obj w x\n", "  obj u x\n  mor zz x\n"))


def test_cli_parse_error_exit_2(tmp_path, capsys):
    one = "diagram sset\ncap 2\nobject a\n"
    two = "diagram sset\ncap 2\nobject a b\nvalue a point\nvalue b point\n"
    for body in (one + "value a wibble 3\n",
                 one + "value a delta x\n",
                 one + "value a horn 2 5\n",
                 "diagram\ncap 2\nobject a\nvalue a point\n",
                 two + "arrow f a\nmap f constant 0\n",
                 two + "arrow f a b\nmap f constant z\n",
                 "diagram sset\nobject a\nvalue a explicit\ncount 0 1\nend\n"
                 "cap 2\n",
                 one + "value a delta -1\n",
                 one + "value a discrete -2\n",
                 "diagram sset\ncap 0\nobject a\nvalue a explicit\n"
                 "count 0 -1\nend\n",
                 # map entries outside the codomain
                 _TWO_POINTS + "map f explicit\nrow 0 0 5\nrow 1 0 1\n"
                 "row 2 0 1\nend\n",
                 "diagram sset\ncap 2\nobject a b\narrow f a b\n"
                 "value a delta 2\nvalue b delta 1\nmap f identity\n",
                 _TWO_POINTS + "map f constant -1\n",
                 # an explicit block breaking the simplicial identities
                 _README_SPEC.replace("degen 0 0 0 1", "degen 0 0 0 2"),
                 _README_SPEC.replace("cap 1", "cap -1"),
                 "diagram sset\ncap 2\n",
                 # lines for degrees or indices the block does not have
                 _README_SPEC.replace("end", "count 5 3\nend"),
                 _README_SPEC.replace("end", "count -1 2\nend"),
                 _README_SPEC.replace("end", "face 2 0 0\nend"),
                 _README_SPEC.replace("end", "face 1 2 0 1 1\nend"),
                 _README_SPEC.replace("end", "degen 1 0 0\nend"),
                 _README_SPEC.replace("end", "degen 0 1 0 1\nend"),
                 _TWO_POINTS + "map f explicit\nrow 0 0 1\nrow 1 0 1\n"
                 "row 2 0 1\nrow 3 0 1\nend\n") + _BAD_MARKINGS + \
            _BAD_FUNCTOR_ROWS:
        bad = tmp_path / "bad.rnspec"
        bad.write_text(body)
        code = main(["build", "relnerve", "--input", str(bad), "--cap", "2"])
        err = capsys.readouterr().err
        assert code == 2, body
        assert err.startswith("parse error:") and \
            len(err.splitlines()) == 1, body
        if body in _BAD_MARKINGS:
            assert err.rstrip().endswith("(line 5)"), body


@pytest.mark.parametrize("name,old,new,message", [
    ("span", "object a b c\n", "object a b c a\n",
     "duplicate object name 'a' (line 6)"),
    ("span_cat", "  object u v\n", "  object u v u\n",
     "duplicate object name 'u' (line 16)"),
    ("span", "", "value a point\n",
     "a second value line for 'a', after line 10 (line 16)"),
    ("span", "", "map p constant 0\n",
     "a second map line for 'p', after line 14 (line 16)"),
    ("interval_diagram_sharp", "", "marking a flat\n",
     "a second marking line for 'a', after line 14 (line 16)"),
    ("span", "", "cap 2\n", "a second cap line, after line 4 (line 16)"),
    ("span", "", "diagram sset\n",
     "a second diagram line, after line 3 (line 16)"),
    ("span", "", "value z point\n", "value of unknown object 'z' (line 16)"),
    ("span", "", "map zz constant 0\n", "map of unknown arrow 'zz' (line 16)"),
    ("span_cat", "  obj u x\n", "  obj w x\n",
     "functor 'p' row: 'w' is not an object of the value at 'c' (line 20)"),
    ("span_cat", "  obj u x\n", "  obj u z\n",
     "functor 'p' row: 'z' is not an object of the value at 'a' (line 20)"),
    ("span_cat", "  obj u x\n", "  obj u x\n  mor zz x\n",
     "functor 'p' row: 'zz' is not a morphism of the value at 'c' "
     "(line 21)")],
    ids=["object", "block-object", "value", "map", "marking", "cap",
         "diagram", "unknown-value", "unknown-map", "functor-source-object",
         "functor-target-object", "functor-morphism"])
def test_cli_names_are_unique_and_known(tmp_path, capsys, name, old, new,
                                        message):
    # the fixture with ``old`` replaced by ``new``, or ``new`` appended
    with open(fixture(name + ".rnspec")) as fh:
        text = fh.read()
    assert old in text
    spec = tmp_path / "names.rnspec"
    spec.write_text(text.replace(old, new, 1) if old else text + new)
    assert main(["build", "groth-classic" if name == "span_cat" else
                 "relnerve", "--input", str(spec)]) == 2
    assert capsys.readouterr().err == "parse error: %s\n" % message


def test_repeated_marked_lines_add_up():
    spec = parse_spec(_MARKED + "marked a 1\nmarked a 2\n")
    assert {1, 2} <= spec.diagram.values[0].marked


# the point as an explicit block (line 4 heads it), and the block with one
# table line dropped or broken
_POINT_BLOCK = ("diagram sset\ncap 1\nobject a\nvalue a explicit\n"
                "count 0 1\ncount 1 1\nface 1 0 0\nface 1 1 0\n"
                "degen 0 0 0\nend\n")


@pytest.mark.parametrize("old,new,message", [
    ("face 1 1 0\n", "", "missing face table 1 1 (line 4)"),
    ("degen 0 0 0\n", "", "missing degeneracy table 0 0 (line 4)"),
    ("face 1 1 0\n", "face 1 1 3\n", "bad face table 1 1 (line 8)"),
    ("degen 0 0 0\n", "degen 0 0 0 0\n",
     "bad degeneracy table 0 0 (line 9)")],
    ids=["missing-face", "missing-degeneracy", "bad-face", "bad-degeneracy"])
def test_cli_table_errors_name_a_line(tmp_path, capsys, old, new, message):
    spec = tmp_path / "table.rnspec"
    spec.write_text(_POINT_BLOCK)
    assert main(["build", "relnerve", "--input", str(spec), "--cap", "1",
                 "--out", str(tmp_path / "out.txt")]) == 0
    spec.write_text(_POINT_BLOCK.replace(old, new))
    assert main(["build", "relnerve", "--input", str(spec),
                 "--cap", "1"]) == 2
    assert capsys.readouterr().err == "parse error: %s\n" % message


def test_cli_value_budget_exit_3(tmp_path, capsys):
    # delta 99 at cap 3 has C(100, 1) + .. + C(103, 4) simplices
    assert generated_size("delta", 3, n=99) > VALUE_BUDGET
    # every value is built at the spec's cap, whatever --cap says: the two
    # cap-3000 specs ran past 120 s before the cap had a bound
    assert 3000 > CAP_BOUND
    spec = tmp_path / "big.rnspec"
    for body, line in [
            ("diagram sset\ncap 3\nobject t\nvalue t delta 99\n", 4),
            ("diagram sset\ncap 3000\nobject a\nvalue a point\n", 2),
            ("diagram sset\ncap 3000\nobject a\nvalue a explicit\nend\n",
             2)]:
        spec.write_text(body)
        code = main(["build", "relnerve", "--input", str(spec), "--cap", "2"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("validity bound:") and \
            err.rstrip().endswith("(line %d)" % line) and \
            len(err.splitlines()) == 1


def test_cli_compare_modes_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--homology", "--pi0", "--input",
              fixture("span.rnspec")])
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


def _mutants(text):
    """The single-line mutations of a spec: drop a line, duplicate a line,
    or replace one integer token with -1, 0, 5 or 99."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        yield lines[:i] + lines[i + 1:]
        yield lines[:i + 1] + lines[i:]
        toks = line.split()
        for j, tok in enumerate(toks):
            if tok.lstrip("-").isdigit():
                for v in ("-1", "0", "5", "99"):
                    yield lines[:i] + [" ".join(
                        toks[:j] + [v] + toks[j + 1:])] + lines[i + 1:]


def _fuzz_specs():
    texts = [_README_SPEC] + [open(fixture(name)).read()
                              for name in sorted(os.listdir(FIXTURES))]
    return ["\n".join(m) + "\n" for t in texts for m in _mutants(t)]


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=st.sampled_from(_fuzz_specs()), cap=st.integers(0, 2))
def test_cli_mutated_specs_exit_cleanly(tmp_path, text, cap):
    # both relative nerves and the comparison between them; a build has no
    # verification to fail, so it never exits 1
    spec = tmp_path / "mutant.rnspec"
    spec.write_text(text)
    for command, allowed in ((["build", "relnerve"], (0, 2, 3)),
                             (["build", "relnerve-direct"], (0, 2, 3)),
                             (["verify", "c4-iso"], (0, 1, 2, 3))):
        args = command + ["--input", str(spec), "--cap", str(cap)]
        assert run(args, tmp_path)[0] in allowed, command


# the other commands, each with its allowed exits
_OTHER_COMMANDS = [(["verify", "identities"], (0, 1, 2, 3)),
                   (["verify", "fibers"], (0, 1, 2, 3)),
                   (["verify", "iota"], (0, 1, 2, 3)),
                   (["compare", "--homology"], (0, 1, 2, 3)),
                   (["compare", "--pi0"], (0, 1, 2, 3)),
                   (["build", "marked-relnerve"], (0, 2, 3))]


@pytest.mark.parametrize("command, allowed", _OTHER_COMMANDS)
def test_cli_mutated_specs_run_every_command_cleanly(tmp_path, command,
                                                     allowed):
    # every single-line mutant of the fixtures and of the README spec, at
    # caps 2 and 3; some of them run through
    spec, codes = tmp_path / "mutant.rnspec", set()
    for text in _fuzz_specs():
        spec.write_text(text)
        for cap in ("2", "3"):
            args = command + ["--input", str(spec), "--cap", cap]
            codes.add(run(args, tmp_path)[0])
            assert codes <= set(allowed), (text, cap)
    assert 0 in codes


# the commands that take a cat spec
_CAT_COMMANDS = [["build", "groth-classic"], ["compare", "--thomason"],
                 ["verify", "fibration"]]

# a cat spec whose value block declares a composite, so that one of its
# mutants drops a compose line
_CHAIN_CAT_SPEC = """diagram cat
cap 3
object a b
arrow p a b
value a category
  object x y z
  arrow u x y
  arrow v y z
  arrow w x z
  compose v u w
end
value b category
  object t
end
map p functor
  obj x t
  obj y t
  obj z t
  mor u id_t
  mor v id_t
  mor w id_t
end
"""


@pytest.mark.parametrize("command", _CAT_COMMANDS)
def test_cli_mutated_cat_specs_exit_cleanly(tmp_path, command):
    # every mutant, at caps 2 and 3, where the fibration audit runs; a
    # build has no verification to fail, so it never exits 1
    spec = tmp_path / "mutant.rnspec"
    allowed = (0, 2, 3) if command[0] == "build" else (0, 1, 2, 3)
    for text in (open(fixture("span_cat.rnspec")).read(), _CHAIN_CAT_SPEC):
        for mutant in _mutants(text):
            spec.write_text("\n".join(mutant) + "\n")
            for cap in ("2", "3"):
                args = command + ["--input", str(spec), "--cap", cap]
                args += ["--ncap", cap] if command[0] == "verify" else []
                assert run(args, tmp_path)[0] in allowed, (mutant, cap)


@pytest.mark.parametrize("name", ["interval_sharp.rnspec",
                                  "interval_diagram_sharp.rnspec"])
def test_cli_mutated_marked_specs_verify_cleanly(tmp_path, name):
    # the marked path of ``verify fibration``, whose FAIL witnesses come
    # from the horn audits: every mutant at cap 3 and both horn bounds
    spec = tmp_path / "mutant.rnspec"
    for mutant in _mutants(open(fixture(name)).read()):
        spec.write_text("\n".join(mutant) + "\n")
        for ncap in ("2", "3"):
            args = ["verify", "fibration", "--input", str(spec), "--cap",
                    "3", "--ncap", ncap]
            assert run(args, tmp_path)[0] in (0, 1, 2, 3), (mutant, ncap)


# the commands that localize, each with its allowed exits and the fixtures
# of the kinds it takes; a build has no verification to fail
_LOCALIZING_COMMANDS = [
    (["build", "hocolim"], (0, 2, 3), ["span.rnspec"]),
    (["build", "localize"], (0, 2, 3),
     ["interval_sharp.rnspec", "interval_diagram_sharp.rnspec"]),
    (["compare", "--colimit"], (0, 1, 2, 3),
     ["span.rnspec", "interval_sharp.rnspec",
      "interval_diagram_sharp.rnspec"])]


@pytest.mark.parametrize("command, allowed, names", _LOCALIZING_COMMANDS)
def test_cli_mutated_specs_localize_cleanly(tmp_path, command, allowed,
                                            names):
    # every single-line mutant of each fixture, at caps 2 and 3
    spec = tmp_path / "mutant.rnspec"
    for name in names:
        for mutant in _mutants(open(fixture(name)).read()):
            spec.write_text("\n".join(mutant) + "\n")
            for cap in ("2", "3"):
                args = command + ["--input", str(spec), "--cap", cap]
                assert run(args, tmp_path)[0] in allowed, (name, mutant, cap)


@pytest.mark.parametrize("command", _CAT_COMMANDS)
def test_cli_refuses_a_value_block_that_is_not_a_category(tmp_path, capsys,
                                                          command):
    # the block declares no composite of q after p
    spec = tmp_path / "missing.rnspec"
    spec.write_text("diagram cat\ncap 3\nobject a\nvalue a category\n"
                    "  object x y z\n  arrow p x y\n  arrow q y z\nend\n")
    assert main(command + ["--input", str(spec), "--cap", "3"]) == 2
    assert capsys.readouterr().err == (
        "parse error: value 'a' is not a category: missing-composite q o p "
        "(line 4)\n")


@pytest.mark.parametrize("edit, message", [
    (("value b delta 1", "value b delta 5"),
     "map 'f' is not simplicial: it breaks face 1 0 at simplex 2 (line 12)"),
    (("marking b sharp\n", ""),
     "map 'f' sends the marked edge 1 of 'a' to the unmarked edge 1 of 'b' "
     "(line 14)")])
def test_cli_names_the_map_that_is_not_functorial(tmp_path, capsys, edit,
                                                  message):
    spec = tmp_path / "mutant.rnspec"
    text = open(fixture("interval_diagram_sharp.rnspec")).read()
    assert edit[0] in text
    spec.write_text(text.replace(*edit))
    assert main(["verify", "fibration", "--input", str(spec), "--cap", "3",
                 "--ncap", "2"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "parse error: diagram is not functorial: %s\n" % message


def test_cli_names_the_composite_that_breaks(tmp_path, capsys):
    spec = tmp_path / "triangle.rnspec"
    spec.write_text("diagram sset\ncap 2\nobject a b c\narrow f a b\n"
                    "arrow g b c\narrow h a c\ncompose g f h\n"
                    "value a delta 1\nvalue b delta 1\nvalue c delta 1\n"
                    "map f identity\nmap g identity\nmap h constant 0\n")
    assert main(["build", "relnerve-direct", "--input", str(spec), "--cap",
                 "2"]) == 2
    assert capsys.readouterr().err == (
        "parse error: diagram is not functorial: map 'h' is not the "
        "composite g o f (line 7)\n")


@pytest.mark.parametrize("command", _CAT_COMMANDS)
def test_cli_names_the_functor_that_breaks_a_law(tmp_path, capsys, command):
    # v: y -> z goes to e: s -> t, but y goes to t, and e o e, the image
    # of v o u, does not exist
    spec = tmp_path / "typing.rnspec"
    spec.write_text(_CHAIN_CAT_SPEC.replace(
        "  object t\n", "  object s t\n  arrow e s t\n").replace(
        "obj x t", "obj x s").replace("mor u id_t", "mor u e").replace(
        "mor v id_t", "mor v e"))
    assert main(command + ["--input", str(spec), "--cap", "3"]) == 2
    assert capsys.readouterr().err == (
        "parse error: diagram is not functorial: functor 'p' is not a "
        "functor: typing v (line 16)\n")


def test_cli_iota_audit_without_mono_maps(tmp_path):
    # delta 1 collapses to a point, so iota is not injective; the audit
    # asks for injectivity only when every transition map is injective
    spec = tmp_path / "collapse.rnspec"
    spec.write_text("diagram sset\ncap 3\nobject a b\narrow f a b\n"
                    "value a delta 1\nvalue b point\nmap f constant 0\n")
    code, text = run(["verify", "iota", "--input", str(spec), "--cap", "3"],
                     tmp_path)
    assert code == 0
    assert "PASS iota-audit bound=3" in text


def test_cli_missing_file_exit_2():
    assert main(["build", "relnerve", "--input", "/nonexistent", "--cap",
                 "2"]) == 2


def test_cli_validity_bound_exit_3():
    # homology outside the trusted range 0..cap-1 refuses with exit 3
    for mode, name, degree in (("--thomason", "span_cat.rnspec", "2"),
                               ("--thomason", "span_cat.rnspec", "-1"),
                               ("--homology", "span.rnspec", "-1")):
        assert main(["compare", mode, "--input", fixture(name), "--cap", "2",
                     "--max-degree", degree]) == 3


def test_cli_bounds_refusal_exit_3(capsys):
    # above the exhaustively-checkable defaults, or below what the suite
    # runs: cap 2 for the natural marking and the fibration audit
    for bound in (["--max-objects", "5"], ["--cap", "9"], ["--cap", "1"],
                  ["--cap", "0"], ["--max-objects", "0"],
                  ["--max-objects", "-2"], ["--max-parallel", "-1"],
                  ["--count", "-1"]):
        code = main(["random-suite", "--seed", "0", "--count", "1"] + bound)
        err = capsys.readouterr().err
        assert code == 3, bound
        assert err.startswith("refused:") and len(err.splitlines()) == 1, \
            bound
    # with no nondegenerate simplex allowed, drawing a value never ends;
    # run apart, so that a hang fails the test instead of the suite
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(os.path.dirname(FIXTURES), os.pardir, "src")]
        + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    for max_nondeg in ("0", "-1"):
        proc = subprocess.run(
            [sys.executable, "-m", "relnerve.cli", "random-suite", "--seed",
             "0", "--count", "1", "--max-nondeg", max_nondeg],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 3, max_nondeg
        assert proc.stderr.startswith("refused:"), max_nondeg


def test_cli_shallow_or_low_cap_exit_3(tmp_path, capsys):
    # caps the bar construction, the natural marking, the marked relative
    # nerve or pi0 cannot serve, and negative caps
    sset_like = ("span.rnspec", "interval_sharp.rnspec",
                 "interval_diagram_sharp.rnspec")
    shallow = tmp_path / "cap1.rnspec"
    shallow.write_text("diagram sset\ncap 1\nobject a\nvalue a point\n")
    intervals = sset_like[1:]
    cases = [(["verify", "iota", "--cap", "4"], "span.rnspec"),
             (["build", "hocolim", "--cap", "4"], "span.rnspec"),
             (["build", "hocolim", "--cap", "1"], "span.rnspec"),
             (["compare", "--cap", "1"], "span.rnspec"),
             (["verify", "fibration", "--cap", "1", "--ncap", "1"],
              "span_cat.rnspec"),
             (["compare", "--cap", "2"], str(shallow)),
             (["build", "hocolim", "--cap", "2"], str(shallow)),
             (["build", "groth-classic", "--cap", "-1"], "span_cat.rnspec"),
             (["verify", "fibration", "--ncap", "-1"], "span_cat.rnspec")]
    cases += [(argv + ["--cap", "-1"], "span.rnspec")
              for argv in (["build", "relnerve"], ["verify", "c4-iso"],
                           ["verify", "iota"], ["verify", "fibers"],
                           ["compare", "--pi0"])]
    cases += [(["compare", "--pi0", "--cap", "0"], name) for name in sset_like]
    cases += [(argv, name) for name in intervals
              for argv in (["build", "marked-relnerve", "--cap", "0"],
                           ["verify", "fibration", "--cap", "0", "--ncap",
                            "0"])]
    for argv, name in cases:
        code = main(argv + ["--input", fixture(name)])
        err = capsys.readouterr().err
        assert code == 3, (argv, name)
        assert err.startswith("validity bound:") and \
            len(err.splitlines()) == 1, (argv, name)


def test_cli_colimit_of_cat_diagram_exit_2(capsys):
    for mode in ([], ["--colimit"]):
        code = main(["compare"] + mode + ["--input",
                                          fixture("span_cat.rnspec")])
        err = capsys.readouterr().err
        assert code == 2, mode
        assert err.startswith("parse error:") and \
            len(err.splitlines()) == 1, mode


def test_cli_ncap_beyond_cap_exit_3(capsys):
    code = main(["verify", "fibration", "--input", fixture("span_cat.rnspec"),
                 "--cap", "2", "--ncap", "3"])
    err = capsys.readouterr().err
    assert code == 3
    assert "Traceback" not in err and len(err.splitlines()) == 1


def test_cli_verify_identities(tmp_path):
    code, text = run(["verify", "identities", "--input",
                      fixture("span.rnspec"), "--cap", "3"], tmp_path)
    assert code == 0
    assert "PASS identities relnerve" in text
    assert "PASS bi-identities space" in text


def test_cli_verify_c4_and_fibers_and_iota(tmp_path):
    for target, needle in (("c4-iso", "PASS iso relnerve-comparison"),
                           ("fibers", "PASS iso fiber-c"),
                           ("iota", "PASS iota-audit")):
        code, text = run(["verify", target, "--input",
                          fixture("span.rnspec"), "--cap", "3"], tmp_path)
        assert code == 0
        assert needle in text


def test_cli_verify_fibration_on_cat_diagram(tmp_path):
    code, text = run(["verify", "fibration", "--input",
                      fixture("span_cat.rnspec"), "--cap", "2",
                      "--ncap", "2"], tmp_path)
    assert code == 0
    assert "PASS cocartesian-fibration" in text


def test_cli_compare_thomason(tmp_path):
    code, text = run(["compare", "--thomason", "--input",
                      fixture("span_cat.rnspec"), "--cap", "3",
                      "--max-degree", "1"], tmp_path)
    assert code == 0
    assert "PASS thomason-agreement" in text
    assert "hocolim H_1 betti=1 torsion=-" in text


def test_cli_compare_pi0_and_colimit(tmp_path):
    code, text = run(["compare", "--pi0", "--input",
                      fixture("span.rnspec"), "--cap", "3"], tmp_path)
    assert code == 0 and "PASS pi0-agreement" in text
    code, text = run(["compare", "--colimit", "--input",
                      fixture("span.rnspec"), "--cap", "3"], tmp_path)
    assert code == 0 and "PASS colimit-composite" in text


@pytest.mark.parametrize("mode,spec,points", [
    ("homology", "span.rnspec", 1), ("thomason", "span_cat.rnspec", 1),
    ("pi0", "span.rnspec", 2)])
def test_cli_agreement_fails_on_a_wrong_bar_construction(
        tmp_path, monkeypatch, mode, spec, points):
    # the span's Grothendieck constructions are circles; the bar
    # construction of a constant point is contractible, and that of a
    # constant two-point diagram has two components
    bar_hocolim = relnerve.cli.bar_hocolim
    monkeypatch.setattr(relnerve.cli, "bar_hocolim", lambda F, cap:
                        bar_hocolim(constant_diagram(
                            F.shape, discrete(points, cap)), cap))
    code, text = run(["compare", "--" + mode, "--input", fixture(spec),
                      "--cap", "3"], tmp_path)
    assert code == 1
    assert "FAIL %s-agreement" % mode in text


def test_cli_colimit_retraction_at_any_cap(tmp_path, capsys):
    # the natural marking glues an edge of J; the retraction covers the
    # colimit's own degrees whatever --cap says
    spec = tmp_path / "j.rnspec"
    spec.write_text("diagram sset\ncap 3\nobject a\nvalue a J\n")
    for cap in ("2", "3", "4"):
        code, text = run(["compare", "--input", str(spec), "--cap", cap],
                         tmp_path)
        err = capsys.readouterr().err
        assert code == 0, cap
        assert "PASS colimit-composite mode=retract" in text, cap
        assert "Traceback" not in err, cap


def test_cli_build_localize(tmp_path):
    code, text = run(["build", "localize", "--input",
                      fixture("interval_sharp.rnspec"), "--cap", "3"],
                     tmp_path)
    assert code == 0
    assert "glued-edges 1" in text
    assert "nondegenerate localized 2 2 2 2" in text


def test_cli_build_localize_refuses_caps_it_cannot_honour(tmp_path, capsys):
    # above the spec's cap 3, and at cap 0 where the marking has no edges
    for cap in ("0", "5"):
        code, _ = run(["build", "localize", "--input",
                       fixture("interval_sharp.rnspec"), "--cap", cap],
                      tmp_path)
        err = capsys.readouterr().err
        assert code == 3, cap
        assert "validity bound" in err and "Traceback" not in err, cap


def test_cli_build_localize_honours_cap(tmp_path):
    code, text = run(["build", "localize", "--input",
                      fixture("interval_sharp.rnspec"), "--cap", "1"],
                     tmp_path)
    assert code == 0
    assert "input kind=marked cap=1" in text
    assert "sizes localized 2 4\n" in text
    assert "glued-edges 1" in text


def test_cli_random_suite_deterministic(tmp_path):
    code1, text1 = run(["random-suite", "--seed", "7", "--count", "3",
                        "--cap", "4"], tmp_path, "a.txt")
    code2, text2 = run(["random-suite", "--seed", "7", "--count", "3",
                        "--cap", "4"], tmp_path, "b.txt")
    assert code1 == code2 == 0
    assert text1 == text2
    assert "failures 0" in text1


def test_cli_marked_relnerve(tmp_path):
    code, text = run(["build", "marked-relnerve", "--input",
                      fixture("interval_sharp.rnspec"), "--cap", "3"],
                     tmp_path)
    assert code == 0
    assert "marked-edges" in text


def test_cli_remaining_build_targets(tmp_path):
    code, text = run(["build", "relnerve-direct", "--input",
                      fixture("span.rnspec"), "--cap", "3"], tmp_path)
    assert code == 0 and "sizes relnerve-direct 4 8 12 16" in text
    code, text = run(["build", "hocolim", "--input",
                      fixture("span.rnspec"), "--cap", "3"], tmp_path)
    assert code == 0 and "glued-edges" in text
    code, text = run(["build", "groth-classic", "--input",
                      fixture("span_cat.rnspec"), "--cap", "3"], tmp_path)
    assert code == 0 and "objects 4" in text and "morphisms" in text


def test_cli_compare_homology_branch(tmp_path):
    code, text = run(["compare", "--homology", "--input",
                      fixture("span.rnspec"), "--cap", "3",
                      "--max-degree", "1"], tmp_path)
    assert code == 0
    assert "PASS homology-agreement max-degree=1" in text
    assert "relnerve H_1 betti=1 torsion=-" in text


def test_cli_verify_on_marked_input(tmp_path):
    code, text = run(["verify", "c4-iso", "--input",
                      fixture("interval_sharp.rnspec"), "--cap", "3"],
                     tmp_path)
    assert code == 0 and "PASS iso relnerve-comparison" in text


def test_cli_verification_failure_exits_1(tmp_path):
    # sharp-marking a non-groupoid fiber marks non-coCartesian edges
    code, text = run(["verify", "fibration", "--input",
                      fixture("interval_diagram_sharp.rnspec"), "--cap", "3",
                      "--ncap", "2"], tmp_path)
    assert code == 1
    assert "FAIL cocartesian-edge" in text


def test_cli_marking_error_is_parse_error(tmp_path):
    bad = tmp_path / "bad.rnspec"
    bad.write_text("diagram marked\ncap 1\nobject a\nvalue a delta 1\n"
                   "marking a natural\n")
    assert main(["build", "marked-relnerve", "--input", str(bad),
                 "--cap", "1"]) == 2


def test_cli_dump_roundtrips(tmp_path):
    from relnerve.pathspace import lurie_grothendieck
    dump = tmp_path / "dump.rnsset"
    code, text = run(["build", "relnerve", "--input",
                      fixture("span.rnspec"), "--cap", "3",
                      "--dump", str(dump)], tmp_path)
    assert code == 0
    # the dump is a 'value built explicit' block: a spec once given a header
    X = parse_spec("diagram sset\ncap 3\nobject built\n"
                   + dump.read_text()).diagram.values[0]
    with open(fixture("span.rnspec")) as fh:
        spec = parse_spec(fh.read())
    R = lurie_grothendieck(spec.diagram, 3)
    assert X.counts == R.total.counts
    assert X.faces[1] == [list(t) for t in R.total.faces[1]]


def test_serialize_marked_roundtrip_text():
    from relnerve.marked import mark
    from relnerve.specio import serialize_marked
    from relnerve.sset import standard_simplex
    M = mark(standard_simplex(1, 2), "sharp")
    text = serialize_marked(M, "x")
    assert text.splitlines()[-1] == "marked x 0 1 2"


def test_public_api_surface():
    import relnerve
    for name in relnerve.__all__:
        assert getattr(relnerve, name) is not None
