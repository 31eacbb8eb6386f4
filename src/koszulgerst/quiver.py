"""Quivers, paths and exact linear combinations of paths.

Paths concatenate left to right: in a path (a1, a2, ...) the terminal vertex
of a1 is the origin of a2, and the product of two paths u, v is u then v
(zero when t(u) != o(v)).  A PathVector is an element of the free path
algebra kQ; it knows nothing about relations, which live in rewriting.py.
"""

from typing import NamedTuple

from .errors import NonQuadraticRelation, ParseError
from .linalg import SparseVector


class Path(NamedTuple):
    """A path in a quiver: explicit origin plus a composable arrow tuple.

    The origin is redundant for nonempty paths but makes length-0 paths
    (vertex idempotents) first-class values.
    """

    o: int
    arrows: tuple


class Quiver:
    """Named vertices and arrows, with their length-0 and length-1 paths.

    vertex_path(v) and arrow_path(a) return one Path per vertex and per
    arrow, built here and shared by every caller: a Path is an immutable
    tuple, so handing out the same object is safe and saves rebuilding a
    letter that never changes.
    """

    def __init__(self, vertex_names, arrows):
        """arrows: iterable of (name, origin_name, target_name)."""
        self.vertex_names = tuple(vertex_names)
        if len(set(self.vertex_names)) != len(self.vertex_names):
            raise ParseError("duplicate vertex names")
        self.vertex_index = {v: i for i, v in enumerate(self.vertex_names)}
        self.arrow_names = []
        self.arrow_o = []
        self.arrow_t = []
        for name, o, t in arrows:
            if name in self.vertex_index or name in self.arrow_names:
                raise ParseError(f"duplicate name {name!r}")
            if o not in self.vertex_index or t not in self.vertex_index:
                raise ParseError(f"arrow {name!r} has unknown endpoint")
            self.arrow_names.append(name)
            self.arrow_o.append(self.vertex_index[o])
            self.arrow_t.append(self.vertex_index[t])
        self.arrow_names = tuple(self.arrow_names)
        self.arrow_index = {a: i for i, a in enumerate(self.arrow_names)}
        self._vertex_paths = tuple(Path(v, ()) for v in range(len(self.vertex_names)))
        self._arrow_paths = tuple(Path(o, (a,)) for a, o in enumerate(self.arrow_o))

    @property
    def num_vertices(self):
        return len(self.vertex_names)

    @property
    def num_arrows(self):
        return len(self.arrow_names)

    def vertex_path(self, v):
        return self._vertex_paths[v]

    def arrow_path(self, a):
        return self._arrow_paths[a]

    def letters(self):
        """The shared vertex and arrow Paths, the letters of bar words, by repr.

        No letter's repr is a prefix of another's, so words compared letter
        by letter at their places here sort exactly as their reprs do.
        """
        return sorted(self._vertex_paths + self._arrow_paths, key=repr)

    def path_target(self, path):
        if path.arrows:
            return self.arrow_t[path.arrows[-1]]
        return path.o

    def is_composable(self, path):
        v = path.o
        for a in path.arrows:
            if self.arrow_o[a] != v:
                return False
            v = self.arrow_t[a]
        return True

    def code(self, path):
        """path as an int: its arrows as base-num_arrows digits, the first
        arrow most significant, or its vertex when it has no arrow.

        Paths of one positive length have equal codes iff they spell the
        same arrows, so composable ones have equal codes iff they are equal.
        """
        if not path.arrows:
            return path.o
        base, code = len(self.arrow_names), 0
        for a in path.arrows:
            code = code * base + a
        return code

    def decode(self, code, length, origin=None):
        """The inverse of code on paths of one length: the arrows of the
        path of that length whose code is code, or, given its origin, the
        Path itself (a vertex when length is 0)."""
        base, arrows = len(self.arrow_names), []
        for _ in range(length):  # the last arrow is the least significant digit
            arrows.append(code % base)
            code //= base
        arrows.reverse()
        arrows = tuple(arrows)
        return arrows if origin is None else Path(origin, arrows)

    def compose(self, u, v):
        """Concatenation u.v, or None when the endpoints do not match."""
        if self.path_target(u) != v.o:
            return None
        return Path(u.o, u.arrows + v.arrows)

    def format_path(self, path):
        if not path.arrows:
            return f"e{self.vertex_names[path.o]}"
        return ".".join(self.arrow_names[a] for a in path.arrows)


class PathVector(SparseVector):
    """Exact linear combination of paths in kQ (no zero coefficients)."""

    __slots__ = ()

    def lengths(self):
        return {len(p.arrows) for p in self.terms}

    def is_uniform(self, quiver):
        pairs = {(p.o, quiver.path_target(p)) for p in self.terms}
        return len(pairs) <= 1

    def format(self, quiver):
        paths = sorted(self.terms, key=lambda p: (len(p.arrows), p.arrows, p.o))
        return self._format_sum((quiver.format_path(p), self.terms[p]) for p in paths)


def free_multiply(quiver, a, b):
    """Product in the free path algebra kQ (concatenation, no relations)."""
    out = {}
    for p, cp in a.terms.items():
        for q, cq in b.terms.items():
            pq = quiver.compose(p, q)
            if pq is None:
                continue
            out[pq] = out.get(pq, 0) + cp * cq
    return PathVector(a.field, out)


def make_order_key(arrow_rank):
    """Length-lex comparison key: key(p) < key(q) iff p > q in length-lex.

    arrow_rank[a] = 0 for the largest arrow.  Sorting paths by this key lists
    them in descending order, so leading terms come first.
    """

    def key(path):
        return (-len(path.arrows), tuple(arrow_rank[a] for a in path.arrows))

    return key


class QuadraticPresentation:
    """A quiver with uniform quadratic relations and a fixed arrow order."""

    def __init__(self, quiver, relations, arrow_order=None, *, field, params=None):
        self.quiver = quiver
        self.relations = list(relations)
        self.field = field
        self.params = dict(params or {})
        for rel in self.relations:
            if rel.field != field:
                raise NonQuadraticRelation("relations over mixed fields")
            if rel.is_zero():
                raise NonQuadraticRelation("zero relation")
            if rel.lengths() != {2}:
                raise NonQuadraticRelation(
                    f"relation {rel.format(quiver)!r} is not purely quadratic")
            if not rel.is_uniform(quiver):
                raise NonQuadraticRelation(
                    f"relation {rel.format(quiver)!r} is not uniform")
        if arrow_order is None:
            arrow_order = tuple(range(quiver.num_arrows))
        else:
            arrow_order = tuple(arrow_order)
            if sorted(arrow_order) != list(range(quiver.num_arrows)):
                raise ParseError("arrow order must list every arrow exactly once")
        self.arrow_order = arrow_order  # largest first
        self.arrow_rank = [0] * quiver.num_arrows
        for rank, a in enumerate(arrow_order):
            self.arrow_rank[a] = rank
        self.order_key = make_order_key(self.arrow_rank)
