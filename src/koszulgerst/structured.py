"""The `--format structured` document writer.

dumps(doc) returns exactly the text of json.dumps(doc, indent=2): two-space
indent, "," ending each item's line, ": " after each key, dict keys in
insertion order, and every non-ASCII or control character of a string
escaped.  Strings go through json's C escaper and containers through
str.join; json.dumps with an indent runs the pure-Python encoder instead,
which takes about twice as long on the thousands of leaves of a
`resolution` document.
"""

from json.encoder import encode_basestring_ascii as _quote


def dumps(doc):
    """json.dumps(doc, indent=2) for dicts with str keys, lists, str, int, bool, None."""
    return _encode(doc, "\n")


def _encode(x, pad):
    if isinstance(x, str):
        return _quote(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    inner = pad + "  "
    if isinstance(x, dict):
        if not x:
            return "{}"
        items = [_quote(k) + ": " + _encode(v, inner) for k, v in x.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(x, list):
        if not x:
            return "[]"
        return "[" + inner + ("," + inner).join([_encode(v, inner) for v in x]) + pad + "]"
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")
