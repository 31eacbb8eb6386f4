"""Input files, presets, command dispatch, output stability, exit codes."""

import json

import pytest

from koszulgerst.algfile import parse_presentation, serialize_presentation
from koszulgerst.cli import main
from koszulgerst.errors import (MissingParameter, NonQuadraticRelation, ParseError,
                                UnknownPreset)
from koszulgerst.fields import QQ
from koszulgerst.presets import load_presentation

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


def test_parse_matches_preset():
    pres = parse_presentation(FAMILY_FILE)
    preset = load_presentation("family", QQ, q=1)
    assert pres.quiver.vertex_names == preset.quiver.vertex_names
    assert pres.quiver.arrow_names == preset.quiver.arrow_names
    assert pres.relations == preset.relations
    assert pres.arrow_order == preset.arrow_order


def test_serialize_round_trip():
    pres = parse_presentation(FAMILY_FILE)
    text = serialize_presentation(pres)
    again = parse_presentation(text)
    assert again.quiver.vertex_names == pres.quiver.vertex_names
    assert again.quiver.arrow_names == pres.quiver.arrow_names
    assert again.relations == pres.relations
    assert again.arrow_order == pres.arrow_order
    assert again.params == pres.params


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
    capsys.readouterr()
    assert main(["verify-all", "--preset", "family", "--q", "2", "-N", "3"]) == 0
    out = capsys.readouterr().out
    assert "golden tables skipped" in out


def test_cli_usage_errors(capsys):
    assert main(["basis"]) == 2  # neither preset nor file
    assert main(["tables", "--preset", "family"]) == 2  # missing q
    capsys.readouterr()


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
