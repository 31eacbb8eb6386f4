"""The structured-output writer and the order of a resolution document."""

import functools
import json
from contextlib import redirect_stdout
from io import StringIO
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from koszulgerst.algfile import parse_presentation
from koszulgerst.cli import main
from koszulgerst.resolution import KoszulComplex
from koszulgerst.structured import Encoded, dumps, letter, records, word_records
from test_cli import EXTERIOR_F32003
from test_structured_digests import COMMANDS, command_key, with_files

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


def sub_values(doc, path=()):
    """(path, value) for doc and each value inside it, a path being the keys
    and list indices that lead from doc to the value."""
    yield path, doc
    if type(doc) in (dict, list):
        for k, v in (doc.items() if type(doc) is dict else enumerate(doc)):
            yield from sub_values(v, path + (k,))


def replaced(doc, path, value):
    """A copy of doc with the value at path replaced by value."""
    if not path:
        return value
    copy = dict(doc) if type(doc) is dict else list(doc)
    copy[path[0]] = replaced(doc[path[0]], path[1:], value)
    return copy


@settings(derandomize=True, max_examples=100, deadline=None)
@given(documents, st.integers(min_value=0))
@example([], 0)  # the top level, an empty list
@example({"k": [1, ['a\n "b']], "": {}}, 4)  # a string with a newline, a space and a quote
@example({"k": [1, ['a\n "b']], "": {}}, 3)  # the list that holds it
def test_writer_places_an_encoded_value_at_any_depth(doc, pick):
    # the text dumps writes for a value at the top level stands for that
    # value anywhere in a document
    paths = list(sub_values(doc))
    path, sub = paths[pick % len(paths)]
    assert dumps(replaced(doc, path, Encoded(dumps(sub)))) == json.dumps(doc, indent=2)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.lists(strings, min_size=4, max_size=4, unique=True),
       st.lists(st.tuples(st.integers(), strings), max_size=4),
       st.lists(st.tuples(st.lists(strings, max_size=3), strings), max_size=4))
@example(["%d", "%s", "%", "%%"], [(7, "%s")], [(["%"], "%d")])
def test_term_lists_match_json_dumps(keys, rows, words):
    assert records(keys[:2], rows) == json.dumps(
        [dict(zip(keys, row)) for row in rows], indent=2)
    runs = [("".join(map(letter, word)), c) for word, c in words]
    assert word_records(keys[2:], "eh", "et", runs) == json.dumps(
        [{keys[2]: ["eh", *word, "et"], keys[3]: c} for word, c in words], indent=2)


def expanded(doc):
    """doc with each Encoded value replaced by the value its text encodes."""
    if type(doc) is Encoded:
        return json.loads(doc)
    if type(doc) is dict:
        return {k: expanded(v) for k, v in doc.items()}
    if type(doc) is list:
        return [expanded(v) for v in doc]
    return doc


@pytest.mark.parametrize("argv", COMMANDS, ids=command_key)
def test_writer_matches_json_dumps_on_every_digested_command(argv, tmp_path):
    # the documents of the byte-identity guard's commands, each written by
    # the writer and by json.dumps; json.dumps would quote an Encoded term
    # list as a string, so it writes the values those texts encode; a
    # command that ends in an input error (exit 2) writes no document
    docs = []

    def writer(doc):
        docs.append(doc)
        return dumps(doc)

    with mock.patch("koszulgerst.cli.dumps", writer), redirect_stdout(StringIO()):
        code = main([*with_files(argv, tmp_path), "--format", "structured"])
    assert len(docs) == (code != 2)
    assert [dumps(doc) for doc in docs] == [json.dumps(expanded(doc), indent=2) for doc in docs]


# 11 vertices and 11 loops at the last one: Path(o=10, arrows=(10,)) sorts
# before Path(o=10, arrows=(2,)) by repr, though arrow 2 < arrow 10
ELEVEN = "\n".join(
    ["field Q", *(f"vertex v{v}" for v in range(11)),
     *(f"arrow a{i} v10 v10" for i in range(11)),
     "relation a2.a10 - a10.a2", "relation a2.a2", "relation a10.a10"]) + "\n"


# 7 vertices and the square a.d = b.c from v0 to v6, its arrows leaving v0,
# v1 and v5: by repr the letters run e0 a b e1 c e2 e3 e4 e5 d e6, so a.d
# reads (1, 9) and b.c (2, 4) at their places, and read as digits in base 4,
# the number of arrows, not 11, the number of letters, b.c comes first
SQUARE = "\n".join(
    ["field Q", *(f"vertex v{v}" for v in range(7)),
     "arrow a v0 v5", "arrow b v0 v1", "arrow c v1 v6", "arrow d v5 v6",
     "relation a.d - b.c"]) + "\n"


@pytest.mark.parametrize("text, N, misorders", [
    (ELEVEN, 3, {"by arrow index"}), (SQUARE, 2, {"in base A"}), (EXTERIOR_F32003, 5, set())],
    ids=["eleven", "square", "ext3-F32003"])
def test_embedding_terms_come_in_letter_repr_order(text, N, misorders, tmp_path, capsys):
    # the term lists of the document against iota and the diagonal; misorders
    # names each wrong order of bar words that this algebra tells apart
    path = tmp_path / "algebra.alg"
    path.write_text(text)
    assert main(["resolution", "--algebra", str(path), "-N", str(N),
                 "--format", "structured"]) == 0
    doc = json.loads(capsys.readouterr().out)
    kx = KoszulComplex(parse_presentation(text), N)
    q, fmt = kx.quiver, kx.field.format
    place = {w: i for i, w in enumerate(q.letters())}

    def in_base_a(word):
        return functools.reduce(lambda key, w: key * q.num_arrows + place[w], word[1:-1], 0)

    embeddings, differs = [], set()
    for n in range(1, N + 1):
        for r in range(kx.count(n)):
            terms = kx.iota(n, r).terms
            by_repr = sorted(terms, key=repr)
            if by_repr != sorted(terms):
                differs.add("by arrow index")
            if by_repr != sorted(terms, key=in_base_a):
                differs.add("in base A")
            embeddings.append({"n": n, "r": r, "terms": [
                {"word": [q.format_path(w) for w in word], "coeff": fmt(terms[word])}
                for word in by_repr]})
    assert doc["embeddings"] == embeddings
    assert doc["diagonals"] == [
        {"n": n, "r": r, "terms": [{"v": v, "p": i, "q": j, "coeff": fmt(c)}
                                   for v, i, j, c in kx.diagonal(n, r)]}
        for n in range(N + 1) for r in range(kx.count(n))]
    assert differs == misorders
