"""Confluent quadratic rewriting: normal forms in Lambda = kQ/I.

The relations are solved for their length-lex leading 2-paths, giving rules
(leading pair) -> strictly smaller quadratic tail.  A diamond-lemma check on
all degree-3 overlaps certifies confluence; success doubles as the Koszulity
certificate (a quadratic Groebner basis), which the resolution construction
assumes throughout.  Reduction is one memoised recursion, times (a normal
word times an arrow, on word indices), for Lambda and for the quadratic
dual A^!.  Every path is folded through it letter by letter from its origin
vertex, an irreducible one to itself.  The one memo of normal forms is that
of the word products u.v: multiplication in Lambda is bilinear in them, and
the confluence check reduces both routes of each overlap through them.  The
normal words are enumerated level by level, each length once, and each
level is indexed by (origin, target) as it grows, so basis_words reads the
words between two vertices without filtering the level.
"""

from graphlib import CycleError, TopologicalSorter

from .errors import KoszulGerstError, NotConfluent
from .linalg import echelon_basis
from .quiver import Path, PathVector


class RewriteSystem:
    def __init__(self, presentation, rules):
        self.presentation = presentation
        self.quiver = presentation.quiver
        self.field = presentation.field
        self.rules = rules  # (arrow, arrow) -> PathVector tail, or zero vector
        self._products = {}  # (u, v) -> normal form of the word product u.v
        q = self.quiver
        # per length and normal word w_j, in enumeration order: w_j, (index of
        # its prefix, its last arrow) from length 1, and {a: times(m, j, a)};
        # per length, the words grouped by (origin, target), in that order
        self._words_by_len = [[q.vertex_path(v) for v in range(q.num_vertices)]]
        self._words_by_ends = [{(v, v): [w] for v, w in enumerate(self._words_by_len[0])}]
        self._splits, self._times = [[]], []
        self._acyclic = None

    # -- normal forms -------------------------------------------------------

    def times(self, m, j, a):
        """w_j . a = sum c w_k as [(k, c)], for the normal word w_j of length
        m and an arrow a that starts where it ends, words indexed in
        enumeration order and grown through length m + 1.  If b.a leads the
        rule b.a -> sum c x.y and w_j = w_k . b, w_j . a = sum c (w_k . x) . y:
        every tail is smaller than b.a, so the recursion ends (Bergman's
        diamond lemma).  A normal w_j . a is recorded as the words grow; the
        others are memoised per (m, j, a) on first use."""
        got = self._times[m][j].get(a)
        if got is None:
            k, b = self._splits[m][j]
            acc = {}
            for xy, c in self.rules[(b, a)].terms.items():
                x, y = xy.arrows
                for l, d in self.times(m - 1, k, x):
                    cd = c * d
                    for i, e in self.times(m, l, y):
                        acc[i] = acc.get(i, 0) + cd * e
            got = self._times[m][j][a] = list(self.field.canon(acc.items()).items())
        return got

    def nf_path(self, path):
        """Normal form of a composable path, folded letter by letter through
        times from its origin vertex; an irreducible path folds to itself."""
        arrows, field = path.arrows, self.field
        words, terms = self._grow_words(len(arrows)), {path.o: field.one}
        for m, a in enumerate(arrows):
            acc = {}
            for j, c in terms.items():
                for i, e in self.times(m, j, a):
                    acc[i] = acc.get(i, 0) + c * e
            terms = acc
        return PathVector(field, {words[i]: c for i, c in terms.items()})

    def normal_form(self, vec):
        """Normal form of a kQ element, the sum of nf_path over its terms;
        idempotent and I-invariant.  A non-composable path raises."""
        q, acc = self.quiver, {}
        for path, coeff in vec.terms.items():
            if not q.is_composable(path):
                raise KoszulGerstError(f"path {q.format_path(path)!r} is not composable")
            for rpath, rcoeff in self.nf_path(path).terms.items():
                acc[rpath] = acc.get(rpath, 0) + coeff * rcoeff
        return PathVector(self.field, acc)

    def word_product(self, u, v):
        """Normal form of the word product u.v (zero if not composable)."""
        key = (u, v)
        got = self._products.get(key)
        if got is None:
            uv = self.quiver.compose(u, v)
            got = PathVector(self.field) if uv is None else self.nf_path(uv)
            self._products[key] = got
        return got

    def multiply(self, a, b):
        """Product in Lambda, bilinear in the memoised word products; a new
        vector on every call, so the memo is never handed out."""
        acc = {}
        for u, cu in a.terms.items():
            for v, cv in b.terms.items():
                c = cu * cv
                for w, cw in self.word_product(u, v).terms.items():
                    acc[w] = acc.get(w, 0) + c * cw
        return PathVector(self.field, acc)  # reduces, and drops the terms that cancelled

    # -- normal-word enumeration ---------------------------------------------

    def _grow_words(self, length):
        """The normal words of the given length, in enumeration order: each level
        grows each word below by the arrows that may follow it, in increasing
        order, and is grouped by (origin, target) as it grows."""
        q, levels = self.quiver, self._words_by_len
        while len(levels) <= length:
            nxt, splits, products, by_ends = [], [], [], {}
            for k, w in enumerate(levels[-1]):
                tail_vertex, children = q.path_target(w), {}
                for a in range(q.num_arrows):
                    if q.arrow_o[a] != tail_vertex:
                        continue
                    if w.arrows and (w.arrows[-1], a) in self.rules:
                        continue
                    children[a] = [(len(nxt), self.field.one)]
                    word = Path(w.o, w.arrows + (a,))
                    nxt.append(word)
                    by_ends.setdefault((w.o, q.arrow_t[a]), []).append(word)
                    splits.append((k, a))
                products.append(children)
            levels.append(nxt)
            self._words_by_ends.append(by_ends)
            self._splits.append(splits)
            self._times.append(products)
        return levels[length]

    def basis_words(self, length, o=None, t=None):
        """A new list of the normal words of the given length from o to t, in
        enumeration order, or of all of them when neither vertex is given."""
        if length < 0:
            return []
        if length >= len(self._words_by_len):
            self._grow_words(length)
        if o is None and t is None:
            return list(self._words_by_len[length])
        if o is None or t is None:
            raise TypeError("basis_words takes both vertices or neither")
        return list(self._words_by_ends[length].get((o, t), ()))

    def is_finite_dimensional(self):
        """True iff Lambda has finitely many normal words.

        Normal words of length >= 1 are walks in the graph on arrows with an
        edge a -> b when (a, b) is composable and not a rule head, so finite
        dimensionality is exactly acyclicity of that graph.
        """
        if self._acyclic is None:
            q = self.quiver
            graph = {a: [b for b in range(q.num_arrows)
                         if q.arrow_t[a] == q.arrow_o[b] and (a, b) not in self.rules]
                     for a in range(q.num_arrows)}
            try:
                TopologicalSorter(graph).prepare()
                self._acyclic = True
            except CycleError:
                self._acyclic = False
        return self._acyclic


def build_rewrite_system(presentation):
    """Interreduce the quadratic relations and certify confluence.

    The relation span is put in reduced echelon form with coordinates the
    degree-2 paths in descending length-lex order, so each row is monic with
    a distinct leading pair; rows become the rules.  Every degree-3 overlap
    is then reduced along both routes, (a.b).c and a.(b.c), through the word
    products of each rule's tail with the outer arrow (diamond lemma); any
    mismatch raises NotConfluent, since Koszulity is a standing hypothesis
    downstream.
    """
    f = presentation.field
    key = presentation.order_key
    rules = {}
    for row in echelon_basis(presentation.relations, key):
        lead = min(row.terms, key=key)
        tail_terms = {p: f.neg(c) for p, c in row.terms.items() if p != lead}
        rules[(lead.arrows[0], lead.arrows[1])] = PathVector(f, tail_terms)
    rs = RewriteSystem(presentation, rules)
    _check_confluence(rs)
    return rs


def _check_confluence(rs):
    q = rs.quiver
    for (a, b), tail_ab in rs.rules.items():
        for (b2, c), tail_bc in rs.rules.items():
            if b2 != b:
                continue
            route1, route2 = {}, {}
            for xy, k in tail_ab.terms.items():
                for w, cw in rs.word_product(xy, q.arrow_path(c)).terms.items():
                    route1[w] = route1.get(w, 0) + k * cw
            for yz, k in tail_bc.terms.items():
                for w, cw in rs.word_product(q.arrow_path(a), yz).terms.items():
                    route2[w] = route2.get(w, 0) + k * cw
            route1, route2 = PathVector(rs.field, route1), PathVector(rs.field, route2)
            if route1 != route2:
                word = Path(q.arrow_o[a], (a, b, c))
                raise NotConfluent(
                    f"overlap {q.format_path(word)} resolves to "
                    f"{route1.format(q)} and {route2.format(q)}")
