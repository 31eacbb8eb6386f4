"""Byte-identity guard for `--format structured` output.

Each command below is run through `cli.main` and the sha256 of what it
prints is compared with the digest recorded in structured_digests.json.
A speed-up must leave every structured document byte-identical, so any
mismatch here is a behaviour change, not noise.

To record the digests of a source tree on purpose (only when its output is
meant to change), run from the repository root:

    PYTHONPATH=src python tests/test_structured_digests.py
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
    ["mc", *FAMILY, "--cocycle=0,0,a.b,0"],
    ["mc", *FAMILY, *F5, "--cocycle=0,0,0,c"],
]


def command_key(argv):
    return " ".join(argv)


def structured_digest(argv, workdir):
    """(exit code, sha256 of stdout) of one structured run of argv."""
    ext3 = Path(workdir) / "ext3.alg"
    ext3.write_text(EXT3, encoding="utf-8")
    real = [arg.replace("{ext3}", str(ext3)) for arg in argv]
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


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = {}
        for argv in COMMANDS:
            code, digest = structured_digest(argv, tmp)
            table[command_key(argv)] = {"exit": code, "sha256": digest}
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    sys.exit(0)
