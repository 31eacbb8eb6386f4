"""The `--format structured` document writer.

dumps(doc) returns exactly the text of json.dumps(doc, indent=2): two-space
indent, "," ending each item's line, ": " after each key, dict keys in
insertion order, and every non-ASCII or control character of a string
escaped.  Strings go through json's C escaper and containers through
str.join; json.dumps with an indent runs the pure-Python encoder instead,
which takes about twice as long on the thousands of leaves of a
`resolution` document.  Values dispatch on their exact type, and the
container loops write str and int leaves, most of a document, inline.
A document repeats a few keys thousands of times, so each call quotes each
distinct key once, into a memo that lives only as long as the call.

Pre-encoded values.  An Encoded is the JSON text of a value laid out as
dumps writes it at the top level, and dumps places it at any depth by
putting that depth's indentation after each newline.  This is exact: JSON
escapes every newline inside a string as \\n, so each raw newline in the
text is layout.  records and word_records write the term lists of a
`resolution` document this way, with no dict built or walked per term.
A bar word's letters are held as their run, the text they take inside a
word_records entry; the run of a word followed by one more letter is the
word's run plus letter(name), so each run is one concatenation.  The
layout is known only to this module.
"""

from json.encoder import encode_basestring_ascii as _quote

_int = int.__repr__

# the layout of one word_records entry: the entry at depth 1, the word list
# at depth 2 and its letters at depth 3
_LETTER = ",\n      "


class Encoded(str):
    """The JSON text of a value as dumps writes it at the top level."""

    __slots__ = ()


def dumps(doc):
    """json.dumps(doc, indent=2) for dicts with str keys, lists, str, int, bool
    and None, none of them a subclass, with Encoded values read as the values
    they encode."""
    return _encode(doc, "\n", {})


def _encode(x, pad, keys):
    kind = type(x)
    if kind is str:
        return _quote(x)
    if kind is int:
        return _int(x)
    if kind is Encoded:
        return x.replace("\n", pad)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    inner = pad + "  "
    if kind is dict:
        if not x:
            return "{}"
        items = []
        for k, v in x.items():
            key = keys.get(k)  # keys: str key -> its quoted text and ": "
            if key is None:
                key = keys[k] = _quote(k) + ": "
            items.append(key + (_quote(v) if type(v) is str else
                                _int(v) if type(v) is int else _encode(v, inner, keys)))
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if kind is list:
        if not x:
            return "[]"
        items = [_quote(v) if type(v) is str else _int(v) if type(v) is int
                 else _encode(v, inner, keys)
                 for v in x]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _list(items):
    """The Encoded list of entries, each an entry's text at depth 1."""
    return Encoded("[\n  " + ",\n  ".join(items) + "\n]" if items else "[]")


def records(keys, rows):
    """Encoded [dict(zip(keys, row)) for row in rows], for a list of rows of
    str and int leaves, each column of one type throughout."""
    if not rows:
        return Encoded("[]")
    # one %-template per entry; "%" in a quoted key is doubled to stay text
    record = "{\n    " + ",\n    ".join(
        _quote(k).replace("%", "%%") + (": %s" if type(v) is str else ": %d")
        for k, v in zip(keys, rows[0])) + "\n  }"
    quoted = [k for k, v in enumerate(rows[0]) if type(v) is str]
    if quoted:
        columns = list(zip(*rows))
        for k in quoted:
            columns[k] = map(_quote, columns[k])
        rows = zip(*columns)
    return _list([record % row for row in rows])


def letter(name):
    """What the letter name adds to the run of a word that it ends: the run
    of the empty word is "", and a word's run followed by letter(name) is
    the run of that word followed by name."""
    return _LETTER + _quote(name)


def word_records(keys, head, tail, rows):
    """Encoded [{keys[0]: [head, *letters, tail], keys[1]: coeff}, ...] for
    rows of (the run of letters, coeff), head, tail and coeff str."""
    word, value = (_quote(k) for k in keys)
    start = "{\n    " + word + ": [\n      " + _quote(head)
    end = _LETTER + _quote(tail) + "\n    ],\n    " + value + ": "
    return _list([start + run + end + _quote(c) + "\n  }" for run, c in rows])
