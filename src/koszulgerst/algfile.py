"""Line-oriented algebra description files and cochain literals.

Grammar (one directive per line, ``#`` starts a comment):

    field Q                  or  field F5
    vertex <name>
    arrow <name> <from> <to>
    order <name> > <name> > ...
    param <name> = <field literal>
    relation <coeff>*<path> [+|- <coeff>*<path>]...

A vertex name is letters, digits and ``_``; an arrow name is an identifier
other than ``e<vertex>``.  A path is a dot-separated arrow list (``a.b``); a
coefficient is a field literal (``2``, ``-1/3``) or a declared parameter
name, and may be omitted when it is 1.  Cochain values on the command line
reuse the same expression syntax extended with ``e<vertex>`` idempotent
atoms and ``0``; every value is written, a zero one as ``0``.
"""

import re

from .cohomology import Cochain
from .errors import KoszulGerstError, NonQuadraticRelation, ParseError
from .fields import field_from_name
from .quiver import Path, PathVector, QuadraticPresentation, Quiver

_TERM_SPLIT = re.compile(r"(?=[+-])")
_VERTEX_NAME = re.compile(r"[A-Za-z0-9_]+")
_ARROW_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def parse_presentation(text, field_override=None):
    field = None
    vertices = []
    arrows, arrow_lines = [], []
    order_names = order_line = None
    params = {}
    relation_lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "field":
            if field is not None:
                raise ParseError("duplicate field declaration", lineno)
            field = _on_line(lineno, field_from_name, rest)
        elif head == "vertex":
            if not rest or " " in rest:
                raise ParseError("vertex wants exactly one name", lineno)
            if not _VERTEX_NAME.fullmatch(rest):
                raise ParseError(f"vertex name {rest!r} is not letters, digits and _", lineno)
            if rest in vertices:
                raise ParseError(f"duplicate vertex name {rest!r}", lineno)
            vertices.append(rest)
        elif head == "arrow":
            bits = rest.split()
            if len(bits) != 3:
                raise ParseError("arrow wants: name from to", lineno)
            if not _ARROW_NAME.fullmatch(bits[0]):
                raise ParseError(f"arrow name {bits[0]!r} is not letters, digits and _ "
                                 f"after a letter or _", lineno)
            arrows.append(tuple(bits))
            arrow_lines.append(lineno)
        elif head == "order":
            order_names = [b.strip() for b in rest.split(">")]
            if any(not b for b in order_names):
                raise ParseError("bad order list", lineno)
            order_line = lineno
        elif head == "param":
            name, eq, value = rest.partition("=")
            if not eq:
                raise ParseError("param wants: name = literal", lineno)
            params[name.strip()] = (value.strip(), lineno)
        elif head == "relation":
            relation_lines.append((lineno, rest))
        else:
            raise ParseError(f"unknown directive {head!r}", lineno)
    if field is None:
        raise ParseError("missing field declaration")
    if field_override is not None:
        field = field_override
    if not vertices:
        raise ParseError("no vertices declared")
    names = set(vertices)
    for (name, o, t), lineno in zip(arrows, arrow_lines):
        if name[0] == "e" and name[1:] in vertices:
            raise ParseError(f"arrow name {name!r} is the idempotent of vertex {name[1:]!r}",
                             lineno)
        if name in names:
            raise ParseError(f"duplicate name {name!r}", lineno)
        names.add(name)
        if o not in vertices or t not in vertices:
            raise ParseError(f"arrow {name!r} has unknown endpoint", lineno)
    quiver = Quiver(vertices, arrows)
    param_values = {n: _on_line(line, field.parse, text) for n, (text, line) in params.items()}
    relations = [_parse_relation(quiver, field, param_values, text, lineno)
                 for lineno, text in relation_lines]
    order = None
    if order_names is not None:
        missing = [n for n in order_names if n not in quiver.arrow_index]
        if missing:
            raise ParseError(f"order lists unknown arrows {missing}", order_line)
        seen = set()
        for name in order_names:
            if name in seen:
                raise ParseError(f"order lists arrow {name!r} twice", order_line)
            seen.add(name)
        if len(order_names) != quiver.num_arrows:
            raise ParseError("order must list every arrow", order_line)
        order = tuple(quiver.arrow_index[n] for n in order_names)
    return QuadraticPresentation(quiver, relations, arrow_order=order,
                                 field=field, params=param_values)


def _parse_relation(quiver, field, params, text, lineno=None):
    vec = parse_value(quiver, field, params, text, lineno, allow_idempotents=False)
    if vec.is_zero():
        raise NonQuadraticRelation(f"line {lineno}: relation {text!r} is zero")
    if vec.lengths() != {2} or not vec.is_uniform(quiver):
        raise NonQuadraticRelation(
            f"line {lineno}: relation {text!r} is not uniform quadratic")
    return vec


def parse_value(quiver, field, params, text, lineno=None, allow_idempotents=True):
    """Parse a linear combination of paths into a PathVector."""
    text = text.strip()
    if text == "0":
        return PathVector.zero(field)
    terms = [t for t in _TERM_SPLIT.split(text.replace(" ", "")) if t]
    acc = {}
    for term in terms:
        sign = 1
        while term and term[0] in "+-":
            if term[0] == "-":
                sign = -sign
            term = term[1:]
        if not term:
            raise ParseError("dangling sign in expression", lineno)
        coeff_text, star, path_text = term.partition("*")
        if not star:
            path_text, coeff_text = term, ""
        coeff = field.one
        if coeff_text:
            if coeff_text in params:
                coeff = params[coeff_text]
            else:
                coeff = _on_line(lineno, field.parse, coeff_text)
        path = _parse_path(quiver, path_text, lineno, allow_idempotents)
        acc[path] = acc.get(path, 0) + sign * coeff
    return PathVector(field, acc)


def _on_line(lineno, parse, text):
    """parse(text), a KoszulGerstError it raises becoming a ParseError on the line."""
    try:
        return parse(text)
    except KoszulGerstError as exc:
        raise ParseError(str(exc), lineno) from exc


def _parse_path(quiver, text, lineno, allow_idempotents):
    if allow_idempotents and text.startswith("e") and text[1:] in quiver.vertex_index:
        return quiver.vertex_path(quiver.vertex_index[text[1:]])
    names = text.split(".")
    arrows = []
    for name in names:
        a = quiver.arrow_index.get(name)
        if a is None:
            raise ParseError(f"unknown arrow {name!r} in path {text!r}", lineno)
        arrows.append(a)
    path = Path(quiver.arrow_o[arrows[0]], tuple(arrows))
    if not quiver.is_composable(path):
        raise ParseError(f"path {text!r} is not composable", lineno)
    return path


def parse_cochain(kx, degree, text):
    """The Cochain of a comma-separated value list in generator-index order,
    checked by Cochain.from_values; an empty list names no values, and an
    empty value in a list is an error."""
    if degree < 0:
        raise ParseError(f"cochain degree must be at least 0, got {degree}")
    parts = [p.strip() for p in text.split(",")] if text.strip() else []
    if len(parts) != kx.count(degree):
        raise ParseError(
            f"degree-{degree} cochain wants {kx.count(degree)} values, got {len(parts)}")
    if "" in parts:
        raise ParseError(f"degree-{degree} cochain has an empty value on "
                         f"eps^{degree}_{parts.index('')}; write 0 for a zero value")
    params = kx.presentation.params
    return Cochain.from_values(
        kx, degree, [parse_value(kx.quiver, kx.field, params, p) for p in parts])
