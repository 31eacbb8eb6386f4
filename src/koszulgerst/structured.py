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
"""

from json.encoder import encode_basestring_ascii as _quote

_int = int.__repr__


def dumps(doc):
    """json.dumps(doc, indent=2) for dicts with str keys, lists, str, int, bool
    and None, none of them a subclass."""
    return _encode(doc, "\n", {})


def _encode(x, pad, keys):
    kind = type(x)
    if kind is str:
        return _quote(x)
    if kind is int:
        return _int(x)
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
