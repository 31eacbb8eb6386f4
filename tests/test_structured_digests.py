"""Byte-identity guard for `--format structured` output.

Each command below is run through `cli.main` and the sha256 of what it
prints is compared with the digest recorded in structured_digests.json.
A speed-up must leave every structured document byte-identical, so any
mismatch here is a behaviour change, not noise.

COMMANDS is also the liveness corpus: tests/test_source_rules.py runs each
command, in text and in structured format, under sys.setprofile, and every
function in src/ must run there (or be a benchmark span or allowlisted).
A command added for coverage is pinned here like any other.

Run as a script from the repository root, the module checks every digest
without pytest and exits 1 on a mismatch:

    PYTHONPATH=src python tests/test_structured_digests.py

To record the digests of a source tree on purpose (only when its output is
meant to change), add --record; nothing is written without it:

    PYTHONPATH=src python tests/test_structured_digests.py --record
"""

import hashlib
import json
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from koszulgerst.cli import main

DIGESTS = Path(__file__).with_name("structured_digests.json")

# quantum exterior algebra on x, y, z; `{ext3}` is replaced by its file path
EXT3 = """\
field F5
vertex 1
arrow x 1 1
arrow y 1 1
arrow z 1 1
order x > y > z
relation x.x
relation y.y
relation z.z
relation y.x + 2*x.y
relation z.x + 3*x.z
relation z.y + 4*y.z
"""

# an arrow to a vertex that is not declared: a ParseError on line 3, exit 2
UNKNOWN_ENDPOINT = """\
field Q
vertex 1
arrow a 1 2
"""

# the family preset at q = 1 ordered b > a > c: the overlap b.a.c does not
# resolve, so the rewrite system is refused with NotConfluent, exit 2
FAMILY_BAC = """\
field Q
vertex 1
vertex 2
arrow a 1 1
arrow b 1 1
arrow c 1 2
order b > a > c
param q = 1
relation a.a
relation b.b
relation a.b - q*b.a
relation a.c
"""

# algebra files written for each run; `{name}` in an argv is its path
FILES = {"ext3": EXT3, "unknown_endpoint": UNKNOWN_ENDPOINT, "family_bac": FAMILY_BAC}

FAMILY = ["--preset", "family", "--q", "1"]
F5 = ["--field", "F5"]

COMMANDS = [
    ["comult", *FAMILY, "-N", "5"],
    ["comult", *FAMILY, *F5, "-N", "5"],
    ["comult", "--preset", "family", "--q", "2", "-N", "5"],
    ["comult", "--preset", "short", "-N", "5"],
    ["comult", "--algebra", "{ext3}", "-N", "4"],
    ["resolution", "--verify", *FAMILY, "-N", "5"],
    ["resolution", "--verify", *FAMILY, *F5, "-N", "4"],
    ["resolution", "--verify", "--preset", "family", "--q", "-1", "-N", "4"],
    ["resolution", "--verify", "--algebra", "{ext3}", "-N", "4"],
    ["cohomology", *FAMILY, "-N", "3"],
    ["cohomology", *FAMILY, *F5, "-N", "3"],
    ["lift", *FAMILY, "--degree", "1", "--cocycle=a,0,0", "-N", "5"],
    ["lift", *FAMILY, *F5, "--degree", "2", "--cocycle=0,0,a.b,0", "-N", "4"],
    ["bracket", *FAMILY, "--engine", "bar", "--left-degree", "1", "--right-degree", "1"],
    ["bracket", *FAMILY, *F5, "--engine", "bar", "--left-degree", "1",
     "--right-degree", "1"],
    ["bracket", *FAMILY, "--engine", "derivation", "--left-degree", "1", "--left=a,0,0",
     "--right-degree", "2", "--right=0,0,a.b,0"],
    ["bracket", *FAMILY, "--engine", "derivation", "--left-degree", "1", "--left=a.b,0,0",
     "--right-degree", "2", "--right=a,0,0,0"],
    ["bracket", *FAMILY, *F5, "--engine", "derivation", "--left-degree", "1",
     "--left=a,0,0", "--right-degree", "2", "--right=0,0,a.b,0"],
    ["mc", *FAMILY, "--cocycle=0,0,a.b,0"],
    ["mc", *FAMILY, *F5, "--cocycle=0,0,0,c"],
    ["basis", "--preset", "short", "-N", "6"],
    ["basis", "--preset", "family", "--q", "2", "-N", "6"],
    ["basis", "--algebra", "{ext3}", "-N", "4"],
    ["cup", *FAMILY, "--left-degree", "1", "--left=a,0,0", "--right-degree", "2",
     "--right=0,0,e1,0"],
    ["bracket", *FAMILY, "--engine", "lifting", "--left-degree", "1", "--left=a,0,b.c",
     "--right-degree", "2", "--right=a,0,a.b,0"],
    ["tables", "--preset", "short"],
    ["tables", *FAMILY],
    ["verify-all", "--preset", "family", "--q", "2"],
    ["cohomology", "--preset", "short", "-N", "3", "--internal-degree", "1"],
    ["basis", "--algebra", "{unknown_endpoint}"],
    ["basis", "--algebra", "{family_bac}"],
]


def command_key(argv):
    return " ".join(argv)


def with_files(argv, workdir):
    """argv with each `{name}` replaced by the path of FILES[name], written
    under workdir."""
    for name, text in FILES.items():
        path = Path(workdir) / f"{name}.alg"
        path.write_text(text, encoding="utf-8")
        argv = [arg.replace(f"{{{name}}}", str(path)) for arg in argv]
    return argv


def structured_digest(argv, workdir):
    """(exit code, sha256 of stdout) of one structured run of argv."""
    real = with_files(argv, workdir)
    out = StringIO()
    with redirect_stdout(out):
        code = main([*real, "--format", "structured"])
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def test_every_command_has_a_digest(recorded):
    assert sorted(recorded) == sorted(command_key(argv) for argv in COMMANDS)


@pytest.mark.parametrize("argv", COMMANDS, ids=command_key)
def test_structured_output_is_byte_identical(argv, recorded, tmp_path):
    code, digest = structured_digest(argv, tmp_path)
    expected = recorded[command_key(argv)]
    assert (code, digest) == (expected["exit"], expected["sha256"])


def _main(cli_args=None):
    import argparse
    import tempfile

    parser = argparse.ArgumentParser(
        description="Check every structured digest against structured_digests.json; "
                    "with --record, overwrite that file with this tree's digests instead.")
    parser.add_argument("--record", action="store_true",
                        help="write the digests of this source tree to structured_digests.json")
    args = parser.parse_args(cli_args)
    with tempfile.TemporaryDirectory() as tmp:
        table = {}
        for argv in COMMANDS:
            code, digest = structured_digest(argv, tmp)
            table[command_key(argv)] = {"exit": code, "sha256": digest}
    if args.record:
        DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n",
                           encoding="utf-8")
        print(f"recorded {len(table)} digests in {DIGESTS.name}")
        return 0
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    keys = table.keys() | recorded.keys()
    bad = sorted(key for key in keys if table.get(key) != recorded.get(key))
    for key in bad:
        print(f"MISMATCH  {key}")
    print(f"{len(keys) - len(bad)} of {len(keys)} digests match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(_main())
