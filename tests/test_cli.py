"""Input files, presets, command dispatch, output stability, exit codes."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import koszulgerst
from koszulgerst import algfile, cli, presets
from koszulgerst.algfile import parse_presentation
from koszulgerst.cli import EXIT_BROKEN_PIPE, _check_table, build_parser, main
from koszulgerst.cohomology import Cochain
from koszulgerst.errors import (KoszulGerstError, MissingParameter, NonQuadraticRelation,
                                ParseError, UnknownPreset)
from koszulgerst.fields import QQ, PrimeField
from koszulgerst.presets import family_table1, family_table2, load_presentation
from koszulgerst.quiver import Quiver

from identity_reference import COUNIT, double_scalar, eps, reference_failures

FAMILY_FILE = """\
# two loops and an exit arrow
field Q
vertex 1
vertex 2
arrow a 1 1
arrow b 1 1
arrow c 1 2
order a > b > c
param q = 1
relation a.a
relation b.b
relation 1*a.b - q*b.a
relation a.c
"""


SHORT_FILE = """\
field Q
vertex 1
arrow x 1 1
arrow y 1 1
relation x.x
relation x.y + y.x
"""


def family_file(field, q):
    """FAMILY_FILE over the named field with the given q literal."""
    return FAMILY_FILE.replace("field Q", f"field {field}").replace("q = 1", f"q = {q}")


@pytest.mark.parametrize("text, name, field, q", [
    (SHORT_FILE, "short", QQ, None),
    (family_file("Q", "1"), "family", QQ, 1),
    (family_file("Q", "-1"), "family", QQ, -1),
    (family_file("Q", "2"), "family", QQ, 2),
    (family_file("F5", "-1"), "family", PrimeField(5), -1),
], ids=["short", "family-q=1", "family-q=-1", "family-q=2", "family-q=-1-F5"])
def test_parse_matches_preset(text, name, field, q):
    # each preset is an algebra file; a file written apart from it, with
    # other spellings of the same relations, reads as the same presentation
    pres = parse_presentation(text)
    preset = load_presentation(name, field, q=q)
    assert pres.field == preset.field == field
    assert pres.quiver.vertex_names == preset.quiver.vertex_names
    assert pres.quiver.arrow_names == preset.quiver.arrow_names
    assert (pres.quiver.arrow_o, pres.quiver.arrow_t) == (
        preset.quiver.arrow_o, preset.quiver.arrow_t)
    assert pres.relations == preset.relations
    assert [list(r.terms.items()) for r in pres.relations] == [
        list(r.terms.items()) for r in preset.relations]
    assert pres.arrow_order == preset.arrow_order
    assert pres.params == preset.params


def test_parse_errors_carry_location():
    with pytest.raises(ParseError) as err:
        parse_presentation("field Q\nvertex 1\nfrobnicate 2\n")
    assert "line 3" in str(err.value)
    with pytest.raises(NonQuadraticRelation) as err:
        parse_presentation("field Q\nvertex 1\narrow x 1 1\nrelation x.x.x\n")
    assert "line 4" in str(err.value)
    with pytest.raises(ParseError):
        parse_presentation("vertex 1\n")  # no field


def test_preset_errors():
    with pytest.raises(UnknownPreset):
        load_presentation("nope", QQ)
    with pytest.raises(MissingParameter):
        load_presentation("family", QQ)
    with pytest.raises(KoszulGerstError, match="^preset 'short' takes no parameter q$"):
        load_presentation("short", QQ, q=2)


def test_cli_tables_family(capsys):
    assert main(["tables", "--preset", "family", "--q", "1"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert "exact-representative matches: 16/16" in out


def test_cli_tables_short(capsys):
    assert main(["tables", "--preset", "short"]) == 0
    out = capsys.readouterr().out
    assert "[chi, theta] = -chi exactly" in out


def test_cli_resolution_verify_structured(capsys):
    code = main(["resolution", "--preset", "short", "-N", "4", "--verify",
                 "--format", "structured"])
    assert code == 0
    first = capsys.readouterr().out
    doc = json.loads(first)
    assert doc["verify"]["ok"] is True
    code = main(["resolution", "--preset", "short", "-N", "4", "--verify",
                 "--format", "structured"])
    assert code == 0
    second = capsys.readouterr().out
    assert first == second  # byte-stable structured output


def test_cli_resolution_text_lists_each_differential_and_diagonal(capsys):
    # structured output carries the diagonals as data; text output spells
    # each one as a Delta line
    assert main(["resolution", "--preset", "short", "-N", "2"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "d(eps^1_0) = -eps^0_0.x + x.eps^0_0",
        "d(eps^1_1) = -eps^0_0.y + y.eps^0_0",
        "d(eps^2_0) = eps^1_0.x + x.eps^1_0",
        "d(eps^2_1) = eps^1_0.y + y.eps^1_0 + eps^1_1.x + x.eps^1_1",
        "Delta(eps^0_0) = 1*eps^0_0 ox eps^0_0",
        "Delta(eps^1_0) = 1*eps^0_0 ox eps^1_0 + 1*eps^1_0 ox eps^0_0",
        "Delta(eps^1_1) = 1*eps^0_0 ox eps^1_1 + 1*eps^1_1 ox eps^0_0",
        "Delta(eps^2_0) = 1*eps^0_0 ox eps^2_0 + 1*eps^1_0 ox eps^1_0 + 1*eps^2_0 ox eps^0_0",
        "Delta(eps^2_1) = 1*eps^0_0 ox eps^2_1 + 1*eps^1_0 ox eps^1_1"
        " + 1*eps^1_1 ox eps^1_0 + 1*eps^2_1 ox eps^0_0"]


EXTERIOR_F32003 = """\
field F32003
vertex 1
arrow x 1 1
arrow y 1 1
arrow z 1 1
order x > y > z
param qxy = 17
param qxz = 2024
param qyz = 31999
relation x.x
relation y.y
relation z.z
relation y.x + qxy*x.y
relation z.x + qxz*x.z
relation z.y + qyz*y.z
"""


@pytest.mark.parametrize("argv, lines, sha256", [
    (["--preset", "family", "--q", "2", "-N", "6"], 73,
     "14ecae57d573922d59fdfd385de1368b2d263b2f6cb31289df4b202e1f9fad8f"),
    (["--algebra", "ext3.alg", "-N", "5"], 116,
     "dac7155c1fb7a7ce9883d4228c5d140b0d1dd477493121f2f64d0f14cd002c79"),
], ids=["family-q=2", "ext3-F32003"])
def test_cli_resolution_text_decodes_no_word(argv, lines, sha256, tmp_path, monkeypatch, capsys):
    # only the structured document lists the embeddings iota(eps^n_r); text
    # mode builds no such section and prints the lines it printed when it
    # did, and neither mode decodes a word: the document's bar words are
    # written from their codes
    (tmp_path / "ext3.alg").write_text(EXTERIOR_F32003)
    monkeypatch.chdir(tmp_path)
    decoded = []
    decode = Quiver.decode

    def spy(self, *args):
        decoded.append(args)
        return decode(self, *args)

    monkeypatch.setattr(Quiver, "decode", spy)
    assert main(["resolution", *argv, "--verify"]) == 0
    out = capsys.readouterr().out
    assert (len(out.splitlines()), hashlib.sha256(out.encode("utf-8")).hexdigest()) == (
        lines, sha256)
    assert main(["resolution", *argv, "--format", "structured"]) == 0
    assert json.loads(capsys.readouterr().out)["embeddings"]
    assert decoded == []


def test_cli_reports_a_failing_counit_law(monkeypatch, capsys):
    # the counit check is one line for two laws, and its failures carry that
    # line's name, the witness naming the side; doubling c(2, 0, 0) of `short`
    # breaks (mu ox 1)Delta = id, and both commands must say FAIL.  Every
    # slice is built first, so that the doubled row reaches no slice above it
    load, built = cli.load_complex, []

    def corrupted(args, min_n=1):
        kx = load(args, min_n)
        for n in range(kx.N + 1):
            for r in range(n + 1):
                kx.c(n, 0, r)
        double_scalar(kx, 2, 0, 0)
        built.append(kx)
        return kx

    witness = "term (mu ox 1, eps^2_0): 1"
    monkeypatch.setattr(cli, "load_complex", corrupted)
    assert main(["resolution", "--preset", "short", "-N", "3", "--verify"]) == 1
    assert [f for f in reference_failures(built[0], 3) if f[0] == COUNIT] == [
        (COUNIT, 2, 0, witness)]
    lines = capsys.readouterr().out.splitlines()
    at = lines.index(f"FAIL  {COUNIT}")
    assert lines[at + 1:at + 3] == [f"      witness at degree 2, generator 0: {witness}",
                                    "PASS  delta iota = iota d"]
    assert main(["verify-all", "--preset", "short", "-N", "3"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert f"PASS  {COUNIT}" not in lines
    at = lines.index(f"FAIL  {COUNIT}")
    assert lines[at + 1] == f"      witness at degree 2, generator 0: {witness}"
    # the structured failure carries the name of the check it fails
    assert main(["resolution", "--preset", "short", "-N", "3", "--verify",
                 "--format", "structured"]) == 1
    verify = json.loads(capsys.readouterr().out)["verify"]
    assert COUNIT in verify["checked"]
    counit = [f for f in verify["failures"] if f[0] == COUNIT]
    assert counit == [[COUNIT, "2", "0", witness]] and "mu ox 1" in counit[0][3]


@pytest.mark.parametrize("argv, lines, sha256", [
    (["--preset", "family", "--q", "1", "-N", "8"], 107,
     "3a382d382d1d5f9a1e7cce03ef25b7088192bd80b92a48e7c5ff6980c27406be"),
    (["--preset", "family", "--q", "-1", "--field", "F5", "-N", "6", "--internal-degree", "2"],
     32, "0ff12c95e9965487287512517c5c571e23f582764c48670fe5433cecce50610e"),
], ids=["family-q=1", "family-q=-1-F5-l=2"])
def test_cli_cohomology_text_formats_no_coboundary(argv, lines, sha256, monkeypatch, capsys):
    # text mode prints the cocycles only; the coboundaries go into the
    # structured document alone, so text mode formats none of them
    spaces, formatted = [], []
    space_of, fmt = cli.cocycle_space, Cochain.format

    def space_spy(*args):
        spaces.append(space_of(*args))
        return spaces[-1]

    def format_spy(self, *args):
        formatted.append(self)
        return fmt(self, *args)

    monkeypatch.setattr(cli, "cocycle_space", space_spy)
    monkeypatch.setattr(Cochain, "format", format_spy)
    assert main(["cohomology", *argv]) == 0
    out = capsys.readouterr().out
    coboundaries = {id(c) for space in spaces for c in space.coboundaries}
    assert coboundaries and not coboundaries & {id(c) for c in formatted}
    assert len(formatted) == out.count("  cocycle ")
    assert (len(out.splitlines()), hashlib.sha256(out.encode("utf-8")).hexdigest()) == (
        lines, sha256)


def test_preset_and_its_algebra_file_print_the_same_resolution(tmp_path, capsys):
    path = tmp_path / "family.alg"
    path.write_text(family_file("F5", "-1"))
    tail = ["-N", "5", "--verify", "--format", "structured"]
    assert main(["resolution", "--preset", "family", "--q", "-1", "--field", "F5", *tail]) == 0
    preset = capsys.readouterr().out
    assert main(["resolution", "--algebra", str(path), *tail]) == 0
    assert capsys.readouterr().out == preset
    assert json.loads(preset)["verify"]["ok"] is True


def test_cli_mc(capsys):
    assert main(["mc", "--preset", "family", "--q", "1",
                 "--cocycle", "0,0,a.b,0"]) == 0
    out = capsys.readouterr().out
    assert "exact: PASS" in out
    # a cocycle that only satisfies the equation up to coboundary exits 1
    assert main(["mc", "--preset", "family", "--q", "1",
                 "--cocycle", "0,0,0,c"]) == 1
    out = capsys.readouterr().out
    assert "exact: FAIL" in out and "class level: PASS" in out
    # a non-cocycle input is a usage error
    assert main(["mc", "--preset", "family", "--q", "1",
                 "--cocycle", "b,0,0,0"]) == 2


def test_cli_lift_and_bracket(capsys):
    assert main(["lift", "--preset", "family", "--q", "1", "--degree", "1",
                 "--cocycle", "a,0,0", "-N", "4"]) == 0
    out = capsys.readouterr().out
    assert "verify: PASS" in out
    assert main(["bracket", "--preset", "family", "--q", "1",
                 "--left-degree", "2", "--left", "a,0,0,0",
                 "--right-degree", "1", "--right", "a,0,0"]) == 0
    out = capsys.readouterr().out
    assert "[left, right] = (a, 0, 0, 0)" in out
    assert main(["bracket", "--preset", "family", "--q", "1",
                 "--engine", "derivation",
                 "--left-degree", "1", "--left", "a,0,0",
                 "--right-degree", "2", "--right", "0,0,a.b,0"]) == 0
    out = capsys.readouterr().out
    assert "b.a" in out


@pytest.mark.parametrize("cocycle", ["a,0,a.b,0", "a,0,e1,0"])
def test_cli_mc_of_an_inhomogeneous_cocycle(cocycle, capsys):
    # values of lengths 1 and 2, or 1 and 0: the cocycle lifts as the sum of
    # its pieces' liftings
    assert main(["mc", "--preset", "family", "--q", "1", "--cocycle", cocycle]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert {"exact: PASS", "class level: PASS", "residual: (0, 0, 0, 0, 0)"} <= set(lines)


def test_cli_lift_of_an_inhomogeneous_cocycle(capsys):
    assert main(["lift", "--preset", "family", "--q", "1", "-N", "5", "--degree", "2",
                 "--cocycle", "a,0,a.b,0"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "verify: PASS"


@pytest.mark.parametrize("engine", ["lifting", "derivation"])
def test_cli_bracket_of_an_inhomogeneous_cocycle(engine, capsys):
    # (a, 0, b.c) = (a, 0, 0) + (0, 0, b.c); the bracket is the sum of theirs
    brackets = []
    for left in ("a,0,b.c", "a,0,0", "0,0,b.c"):
        assert main(["bracket", "--preset", "family", "--q", "1", "--engine", engine,
                     "--left-degree", "1", "--left", left,
                     "--right-degree", "2", "--right", "a,0,a.b,0"]) == 0
        brackets.append(capsys.readouterr().out.splitlines()[-1])
    assert brackets == ["[left, right] = (-a, 0, b.a, 0)", "[left, right] = (-a, 0, b.a, 0)",
                        "[left, right] = (0, 0, 0, 0)"]


def test_cli_derivation_bracket_checks_its_lifting(monkeypatch, capsys):
    # the derivation engine verifies the operator it brackets with, as lift
    # does: one bumped image and the command exits 2 naming the first
    # failing generator, with nothing on stdout
    lift = cli.derivation_lift

    def bumped(kx, gamma, M):
        op = lift(kx, gamma, M)
        img = op.maps[2][1]
        op.maps[2][1] = img + eps(kx, img.degree, 0)
        return op

    monkeypatch.setattr(cli, "derivation_lift", bumped)
    assert main(["bracket", "--preset", "family", "--q", "1", "--engine", "derivation",
                 "--left-degree", "1", "--left", "a,0,0",
                 "--right-degree", "2", "--right", "0,0,a.b,0"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "error: derivation operator fails the lifting equation at eps^2_1\n")


@pytest.mark.parametrize("engine", ["lifting", "derivation"])
@pytest.mark.parametrize("left, right", [("a,0,0", "0,a,0"), ("0,a,0", "a,0,0")],
                         ids=["bad-right", "bad-left"])
def test_cli_bracket_of_a_non_cocycle_exits_2(engine, left, right, capsys):
    # (0, a, 0) is no cocycle; both engines used to print a bracket and exit 0
    assert main(["bracket", "--preset", "family", "--q", "1", "--engine", engine,
                 "--left-degree", "1", "--left", left,
                 "--right-degree", "1", "--right", right]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: input cochain is not a cocycle\n")


@pytest.mark.parametrize("table, degree", [(family_table1, 2), (family_table2, 1)],
                         ids=["table1", "table2"])
def test_check_table_needs_exactly_a_basis(table, degree, family8):
    golden = table(family8)
    assert _check_table(family8, golden, degree) == (True, True)
    # a repeated row, a dropped row, and a row replaced by a copy of another
    for rows in (golden + golden[:1], golden[1:], golden[:1] + golden[:-1]):
        assert _check_table(family8, rows, degree) == (True, False)


def test_cli_bar_engine(capsys):
    assert main(["bracket", "--preset", "family", "--q", "1", "--engine", "bar",
                 "--left-degree", "1", "--right-degree", "1"]) == 0
    out = capsys.readouterr().out
    assert "all agree" in out


def test_cli_cohomology_and_cup(capsys):
    assert main(["cohomology", "--preset", "family", "--q", "1", "-N", "3"]) == 0
    out = capsys.readouterr().out
    assert "dim HH" in out
    assert main(["cup", "--preset", "family", "--q", "1",
                 "--left-degree", "1", "--left", "a,0,0",
                 "--right-degree", "1", "--right", "0,b,0"]) == 0
    out = capsys.readouterr().out
    assert "cup" in out


def test_cli_algebra_file(tmp_path, capsys):
    path = tmp_path / "family.alg"
    path.write_text(FAMILY_FILE)
    assert main(["resolution", "--algebra", str(path), "-N", "3", "--verify"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_cli_verify_all(capsys):
    assert main(["verify-all", "--preset", "family", "--q", "1", "-N", "4"]) == 0
    out = capsys.readouterr().out
    assert "PASS  d*d=0" in out and "FAIL" not in out


def test_cli_verify_all_structured_is_one_document(capsys):
    assert main(["verify-all", "--preset", "family", "--q", "1", "-N", "4",
                 "--format", "structured"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    assert doc["exact_matches"] == 16
    assert any(c["name"] == "resolution identities" for c in doc["checks"])


def test_cli_golden_tables_pinned_at_q_one(capsys):
    # the table data only exists at q = 1: tables refuses, verify-all skips
    assert main(["tables", "--preset", "family", "--q", "2"]) == 2
    assert capsys.readouterr().err == (
        "error: the golden tables are pinned at q = 1; rerun with --q 1\n")
    assert main(["verify-all", "--preset", "family", "--q", "2", "-N", "3"]) == 0
    out = capsys.readouterr().out
    assert "golden tables skipped" in out


def test_cli_tables_parses_each_golden_cochain_once(monkeypatch, capsys):
    # the 9 degree-2 and 6 degree-1 table vectors and the 5 named cocycles,
    # which the bracket table reuses
    parse, calls = algfile.parse_cochain, []

    def counted(kx, degree, text):
        calls.append((degree, text))
        return parse(kx, degree, text)

    monkeypatch.setattr(algfile, "parse_cochain", counted)
    monkeypatch.setattr(presets, "parse_cochain", counted)
    assert main(["tables", "--preset", "family", "--q", "1"]) == 0
    capsys.readouterr()
    assert len(calls) == 9 + 6 + 5


def test_cli_usage_errors(capsys):
    assert main(["basis"]) == 2  # neither preset nor file
    assert main(["tables", "--preset", "family"]) == 2  # missing q
    capsys.readouterr()


@pytest.mark.parametrize("source", ["preset", "algebra"])
def test_cli_q_outside_the_family_preset_exits_2(source, tmp_path, capsys):
    # --q used to be ignored silently here, and the run exited 0
    path = tmp_path / "family.alg"
    path.write_text(FAMILY_FILE)
    where = ["--preset", "short"] if source == "preset" else ["--algebra", str(path)]
    assert main(["basis", *where, "--q", "2", "-N", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "--q" in err


def test_cli_lift_cocycle_may_start_with_minus(capsys):
    assert main(["lift", "--preset", "family", "--q", "1", "--degree", "1",
                 "--cocycle", "-3*a,0,0", "-N", "3"]) == 0
    assert "verify: PASS" in capsys.readouterr().out


def test_cli_mc_cocycle_may_start_with_minus(capsys):
    assert main(["mc", "--preset", "family", "--q", "1", "--cocycle", "-a,0,0,0"]) == 0
    assert "exact: PASS" in capsys.readouterr().out


def test_cli_bracket_left_may_start_with_minus(capsys):
    assert main(["bracket", "--preset", "family", "--q", "1",
                 "--left-degree", "2", "--left", "-a,0,0,0",
                 "--right-degree", "1", "--right", "a,0,0"]) == 0
    assert "[left, right] = (-a, 0, 0, 0)" in capsys.readouterr().out


def test_cli_bracket_right_may_start_with_minus(capsys):
    assert main(["bracket", "--preset", "family", "--q", "1",
                 "--left-degree", "2", "--left", "a,0,0,0",
                 "--right-degree", "1", "--right", "-a,0,0"]) == 0
    assert "[left, right] = (-a, 0, 0, 0)" in capsys.readouterr().out


def test_cli_q_may_be_a_negative_fraction(capsys):
    assert main(["basis", "--preset", "family", "--q", "-1/2", "-N", "2"]) == 0
    assert "f^2_1 = a.b + 1/2*b.a" in capsys.readouterr().out


def test_cli_unpinned_cochain_exits_2(capsys):
    # c runs from vertex 1 to vertex 2, but eps^1_0 (the loop a) sits at 1
    assert main(["lift", "--preset", "family", "--q", "1", "--degree", "1",
                 "--cocycle", "c,0,0", "-N", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not pinned" in err


@pytest.mark.parametrize("argv, out", [
    (["mc", "--cocycle="], "exact: PASS"),
    (["lift", "--degree", "2", "--cocycle="], "verify: PASS"),
    (["cup", "--left-degree", "2", "--left=", "--right-degree", "0", "--right=e1,e2"],
     "cup = ()"),
], ids=["mc", "lift", "cup"])
def test_cli_empty_cochain_is_zero_without_generators(argv, out, tmp_path, capsys):
    # K_2 = 0 on the hereditary 1 -> 2; "" used to read as one empty value
    path = tmp_path / "a12.alg"
    path.write_text("field Q\nvertex 1\nvertex 2\narrow a 1 2\n")
    assert main([argv[0], "--algebra", str(path), *argv[1:]]) == 0
    assert out in capsys.readouterr().out.splitlines()


def test_cli_empty_cochain_counts_no_values(capsys):
    assert main(["mc", "--preset", "family", "--q", "1", "--cocycle="]) == 2
    assert "degree-2 cochain wants 4 values, got 0" in capsys.readouterr().err


def test_cli_lift_of_degree_0_exits_2(capsys):
    assert main(["lift", "--preset", "family", "--q", "1", "--degree", "0",
                 "--cocycle", "e1,e2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "degree-0" in err
    assert "Traceback" not in err


def test_cli_non_prime_field_exits_2(capsys):
    assert main(["basis", "--preset", "family", "--q", "1", "--field", "F9", "-N", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "9 is not prime" in err
    assert "Traceback" not in err
    # a prime past 2**31 is refused before any trial division
    assert main(["basis", "--preset", "family", "--q", "1",
                 "--field", f"F{2**127 - 1}", "-N", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "too large" in err


def test_cli_field_literal_without_residue_exits_2(capsys):
    # 1/5 has no residue mod 5
    assert main(["basis", "--preset", "family", "--q", "1/5", "--field", "F5", "-N", "2"]) == 2
    assert capsys.readouterr() == ("", "error: bad field literal '1/5' for F5\n")


def test_cli_algebra_file_over_non_prime_field_exits_2(tmp_path, capsys):
    path = tmp_path / "family_f4.alg"
    path.write_text(FAMILY_FILE.replace("field Q", "field F4"))
    assert main(["basis", "--algebra", str(path), "-N", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "4 is not prime" in err
    assert "Traceback" not in err


def test_cli_bad_field_line_reports_its_line(tmp_path, capsys):
    path = tmp_path / "f4.alg"
    path.write_text("field F4\nvertex 1\narrow x 1 1\nrelation x.x\n")
    assert main(["basis", "--algebra", str(path), "-N", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "line 1" in err and "4 is not prime" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("kind, reason", [
    ("missing", "No such file or directory"),
    ("directory", "Is a directory"),
    ("not-utf8", "can't decode byte 0xff"),
])
def test_cli_unreadable_algebra_file_exits_2(kind, reason, tmp_path, capsys):
    # each used to end in a traceback (FileNotFoundError, IsADirectoryError,
    # UnicodeDecodeError) with status 1
    path = tmp_path / "x.alg"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes(b"\xff\xfe")
    assert main(["basis", "--algebra", str(path), "-N", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read algebra file {path}: ") and reason in err
    assert "Traceback" not in err


def test_cli_bar_engine_of_degree_0_exits_2(capsys):
    assert main(["bracket", "--preset", "family", "--q", "1", "--engine", "bar",
                 "--left-degree", "0", "--right-degree", "1", "-N", "4"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "degree 1" in err


@pytest.mark.parametrize("argv", [
    ["--preset", "family", "--q", "1", "-N", "3", "--internal-degree", "-1"],
    ["--preset", "short", "--internal-degree", "-2"],
])
def test_cli_negative_internal_degree_exits_2(argv, capsys):
    # a negative length used to index the word levels from the end
    assert main(["cohomology", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--internal-degree" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("n", ["7", "-1"])
def test_cli_comult_degree_out_of_range_exits_2(n, capsys):
    # used to print nothing and exit 0
    assert main(["comult", "--preset", "family", "--q", "1", "-N", "3", "--n", n]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--n must be in 0..3" in err


def test_cli_comult_split_alone_lists_every_degree_that_has_it(capsys):
    argv = ["comult", "--preset", "family", "--q", "1", "-N", "3", "--format", "structured"]
    assert main(argv) == 0
    every = json.loads(capsys.readouterr().out)["entries"]
    assert main([*argv, "--r", "1"]) == 0
    got = json.loads(capsys.readouterr().out)["entries"]
    assert got == [e for e in every if e["r"] == 1]
    assert sorted({e["n"] for e in got}) == [1, 2, 3]


@pytest.mark.parametrize("extra, message", [
    (["--r", "-1"], "--r must be at least 0"),
    (["--r", "4"], "--r must be in 0..3"),
    (["--n", "2", "--r", "3"], "--r must be in 0..2, got 3"),  # not the library's slice error
])
def test_cli_comult_bad_split_exits_2(extra, message, capsys):
    assert main(["comult", "--preset", "family", "--q", "1", "-N", "3", *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["cup", "--left-degree", "-1", "--left=a", "--right-degree", "1", "--right=a,0,0"],
    ["lift", "--degree", "-1", "--cocycle=a"],
])
def test_cli_negative_cochain_degree_exits_2(argv, capsys):
    # used to read `degree--1 cochain wants 0 values, got 1`
    assert main([argv[0], "--preset", "family", "--q", "1", *argv[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "cochain degree must be at least 0" in err
    assert "degree--" not in err and "Traceback" not in err


def test_cli_internal_degree_is_a_cohomology_flag(capsys):
    assert main(["cohomology", "--preset", "short", "-N", "3", "--internal-degree", "1",
                 "--format", "structured"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [s["internal_degrees"] for s in doc["spaces"]] == [[1], [1], [1]]
    with pytest.raises(SystemExit) as exc:
        main(["basis", "--preset", "short", "-N", "3", "--internal-degree", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --internal-degree" in capsys.readouterr().err


def _subprocess_env(unbuffered):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(koszulgerst.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


BASIS_ARGV = [sys.executable, "-m", "koszulgerst.cli", "basis", "--preset", "family", "--q", "1"]


@pytest.mark.parametrize("unbuffered", [True, False])
def test_cli_reader_closing_early_is_not_a_traceback(unbuffered):
    # about 200 kB of text: more than the pipe and stdout buffers hold, so the
    # writer is still printing when the reader goes away (`| head -1`)
    proc = subprocess.Popen(BASIS_ARGV + ["-N", "12"], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=_subprocess_env(unbuffered))
    assert proc.stdout.readline() == b"degree 0: 2 generators\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_BROKEN_PIPE
    assert err == b""


def test_cli_reader_gone_before_the_final_flush_is_not_a_traceback():
    # a few hundred bytes stay in the stdout buffer until the end of the run,
    # so the closed pipe shows only at the flush; at interpreter exit that
    # would print "Exception ignored ... BrokenPipeError" and exit 120
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(BASIS_ARGV + ["-N", "3"], stdout=write_end,
                              stderr=subprocess.PIPE, env=_subprocess_env(False), timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_BROKEN_PIPE
    assert proc.stderr == b""


# -- one parser per process -------------------------------------------------------


LIFT_ARGV = ["lift", "--preset", "family", "--q", "1", "--degree", "2",
             "--cocycle=0,0,a.b,0", "-N", "5", "--format", "structured"]


def test_cli_builds_its_parser_once():
    assert build_parser() is build_parser()


def test_cli_reused_parser_carries_nothing_between_calls(capsys):
    with pytest.raises(SystemExit) as exc:  # usage error: --degree is required
        main(["lift", "--preset", "family", "--q", "1", "--cocycle", "a,0,0"])
    assert exc.value.code == 2
    assert main(["lift", "--preset", "family", "--q", "1", "--degree", "1",
                 "--cocycle", "c,0,0", "-N", "3"]) == 2  # KoszulGerstError
    capsys.readouterr()
    assert main(LIFT_ARGV) == 0
    out = capsys.readouterr().out
    fresh = subprocess.run([sys.executable, "-m", "koszulgerst.cli", *LIFT_ARGV],
                           capture_output=True, env=_subprocess_env(False), timeout=60)
    assert fresh.returncode == 0
    assert out.encode() == fresh.stdout


@pytest.mark.parametrize("argv", [["--help"], ["lift", "--help"]])
def test_cli_help_matches_a_freshly_built_parser(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    reused = capsys.readouterr().out
    with pytest.raises(SystemExit):
        build_parser.__wrapped__().parse_args(argv)
    assert reused == capsys.readouterr().out


@pytest.mark.parametrize("lines, line, message", [
    (["arrow x 1 1", "order z"], 4, "order lists unknown arrows ['z']"),
    (["arrow x 1 1", "order x > x"], 4, "order lists arrow 'x' twice"),
    (["arrow x 1 1", "arrow y 1 1", "order x > x"], 5, "order lists arrow 'x' twice"),
    (["arrow x 1 1", "arrow y 1 1", "order y", "relation x.y"], 5,
     "order must list every arrow"),
    (["arrow x 1 1", "relation 0*x.x"], 4, "relation '0*x.x' is zero"),
    (["arrow x 1 1", "relation x.x - x.x"], 4, "relation 'x.x - x.x' is zero"),
    (["arrow e1 1 1", "order e1", "relation e1.e1"], 3,
     "arrow name 'e1' is the idempotent of vertex '1'"),
    (["arrow e2 1 1", "vertex 2"], 3, "arrow name 'e2' is the idempotent of vertex '2'"),
    *[([f"arrow {name} 1 1"], 3,
       f"arrow name {name!r} is not letters, digits and _ after a letter or _")
      for name in ("a.b", "x*y", "p-q", "u,v", "2", "0")],
    (["vertex 1-2"], 3, "vertex name '1-2' is not letters, digits and _"),
    (["vertex 2", "vertex 1"], 4, "duplicate vertex name '1'"),
    (["arrow x 1 1", "arrow y 1 1", "arrow x 1 1"], 5, "duplicate name 'x'"),
    (["arrow a 1 a", "vertex a"], 3, "duplicate name 'a'"),
    (["arrow x 1 1", "arrow y 1 3"], 4, "arrow 'y' has unknown endpoint"),
    (["arrow a 1 1", "order a > 1"], 4, "order lists unknown arrows ['1']"),
    (["arrow x 1 1", "param q = x", "relation x.x"], 4, "bad rational literal 'x'"),
    (["arrow a 1 1", "arrow b 1 1", "relation a.b - q*b.a"], 5, "bad rational literal 'q'"),
], ids=["unknown", "repeated-one-arrow", "repeated-two-arrows", "missing", "zero",
        "cancelling", "idempotent-arrow", "idempotent-arrow-before-vertex", "dotted-arrow",
        "star-arrow", "minus-arrow", "comma-arrow", "numeral-arrow", "zero-arrow",
        "minus-vertex", "duplicate-vertex", "duplicate-arrow", "arrow-named-like-a-vertex",
        "unknown-endpoint", "order-lists-1", "bad-param", "undeclared-coefficient"])
def test_cli_bad_order_or_zero_relation_reports_its_line(lines, line, message, tmp_path,
                                                         capsys):
    path = tmp_path / "bad.alg"
    path.write_text("\n".join(["field Q", "vertex 1", *lines]) + "\n")
    assert main(["basis", "--algebra", str(path), "-N", "2"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: line {line}: {message}\n"


def test_cli_empty_cochain_value_exits_2(capsys):
    # an empty slot used to read as zero: the cup below printed (0, 0, 0, 0)
    assert main(["cup", "--preset", "family", "--q", "1", "--left-degree", "1",
                 "--left", "a,0,0", "--right-degree", "1", "--right", "a,,0"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "error: degree-1 cochain has an empty value on eps^1_1; write 0 for a zero value\n")
