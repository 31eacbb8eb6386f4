"""The structured-output writer and the order of a resolution document."""

import json
from contextlib import redirect_stdout
from io import StringIO
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koszulgerst.algfile import parse_presentation
from koszulgerst.cli import main
from koszulgerst.fields import QQ
from koszulgerst.resolution import KoszulComplex
from koszulgerst.structured import dumps
from test_structured_digests import COMMANDS, EXT3, command_key

# quotes, backslashes, control characters, DEL, non-ASCII, a line separator
# and an astral-plane character: the classes json escapes differently
ALPHABET = 'ab "\\/\n\r\t\b\f\x00\x1f\x7f\xe9\u20ac\u2028\ufffd\U0001f600'
strings = st.text(st.sampled_from(ALPHABET), max_size=12)
leaves = st.none() | st.booleans() | st.integers() | strings
documents = st.recursive(
    leaves, lambda kids: st.lists(kids, max_size=4) | st.dictionaries(strings, kids, max_size=4),
    max_leaves=25)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(documents)
def test_writer_matches_json_dumps_indent_2(doc):
    assert dumps(doc) == json.dumps(doc, indent=2)


def test_writer_on_empty_containers_and_scalars():
    for doc in ({}, [], {"a": {}, "b": [], "c": [[], {}]}, 0, -7, True, None, "", "ü"):
        assert dumps(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("argv", COMMANDS, ids=command_key)
def test_writer_matches_json_dumps_on_every_digested_command(argv, tmp_path):
    # the documents of the byte-identity guard's commands, each written by
    # the writer and by json.dumps
    ext3 = tmp_path / "ext3.alg"
    ext3.write_text(EXT3, encoding="utf-8")
    docs = []

    def writer(doc):
        docs.append(doc)
        return dumps(doc)

    with mock.patch("koszulgerst.cli.dumps", writer), redirect_stdout(StringIO()):
        main([arg.replace("{ext3}", str(ext3)) for arg in argv] + ["--format", "structured"])
    assert len(docs) == 1 and dumps(docs[0]) == json.dumps(docs[0], indent=2)


# 11 vertices and 11 loops at the last one: Path(o=10, arrows=(10,)) sorts
# before Path(o=10, arrows=(2,)) by repr, though arrow 2 < arrow 10
ELEVEN = "\n".join(
    ["field Q", *(f"vertex v{v}" for v in range(11)),
     *(f"arrow a{i} v10 v10" for i in range(11)),
     "relation a2.a10 - a10.a2", "relation a2.a2", "relation a10.a10"]) + "\n"


def test_embedding_terms_come_in_letter_repr_order(tmp_path, capsys):
    path = tmp_path / "eleven.alg"
    path.write_text(ELEVEN)
    assert main(["resolution", "--algebra", str(path), "-N", "3",
                 "--format", "structured"]) == 0
    doc = json.loads(capsys.readouterr().out)
    kx = KoszulComplex(parse_presentation(ELEVEN), 3)
    q = kx.quiver
    want, numeric_differs = [], False
    for n in range(1, 4):
        for r in range(kx.count(n)):
            keys = list(kx.iota(n, r).terms)
            by_repr = sorted(keys, key=repr)
            numeric_differs |= by_repr != sorted(keys)
            want.append({"n": n, "r": r, "terms": [
                {"word": [q.format_path(w) for w in key],
                 "coeff": QQ.format(kx.iota(n, r).terms[key])} for key in by_repr]})
    assert doc["embeddings"] == want
    assert numeric_differs
