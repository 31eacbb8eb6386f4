"""Confluent quadratic rewriting: normal forms in Lambda = kQ/I.

The relations are solved for their length-lex leading 2-paths, giving rules
(leading pair) -> strictly smaller quadratic tail.  A diamond-lemma check on
all degree-3 overlaps certifies confluence; success doubles as the Koszulity
certificate (a quadratic Groebner basis), which the resolution construction
assumes throughout.  Reduction is leftmost-first and memoised per path; the
normal form of each word product u.v is memoised per (u, v) pair, and
multiplication in Lambda is the bilinear extension of that memo.
"""

from .errors import NotConfluent
from .linalg import _rref
from .quiver import Path, PathVector, free_multiply


class RewriteSystem:
    def __init__(self, presentation, rules):
        self.presentation = presentation
        self.quiver = presentation.quiver
        self.field = presentation.field
        self.rules = rules  # (arrow, arrow) -> PathVector tail, or zero vector
        self._nf_cache = {}
        self._products = {}  # (u, v) -> normal form of the word product u.v
        self._words_by_len = None
        self._acyclic = None

    # -- normal forms -------------------------------------------------------

    def reducible_at(self, path):
        """Index of the leftmost reducible pair of arrows, or -1."""
        arrows = path.arrows
        for k in range(len(arrows) - 1):
            if (arrows[k], arrows[k + 1]) in self.rules:
                return k
        return -1

    def nf_path(self, path):
        """Normal form of a single path as a PathVector."""
        cached = self._nf_cache.get(path)
        if cached is not None:
            return cached
        k = self.reducible_at(path)
        if k < 0:
            result = PathVector.single(self.field, path)
        else:
            arrows = path.arrows
            tail = self.rules[(arrows[k], arrows[k + 1])]
            f = self.field
            acc = {}
            for tpath, tcoeff in tail.terms.items():
                replaced = Path(path.o, arrows[:k] + tpath.arrows + arrows[k + 2:])
                for rpath, rcoeff in self.nf_path(replaced).terms.items():
                    new = f.add(acc.get(rpath, f.zero), f.mul(tcoeff, rcoeff))
                    if new == f.zero:
                        acc.pop(rpath, None)
                    else:
                        acc[rpath] = new
            result = PathVector(f, acc)
        self._nf_cache[path] = result
        return result

    def normal_form(self, vec):
        """Normal form of a kQ element; idempotent and I-invariant."""
        f = self.field
        acc = {}
        for path, coeff in vec.terms.items():
            if self.reducible_at(path) < 0:
                new = f.add(acc.get(path, f.zero), coeff)
                if new == f.zero:
                    acc.pop(path, None)
                else:
                    acc[path] = new
                continue
            for rpath, rcoeff in self.nf_path(path).terms.items():
                new = f.add(acc.get(rpath, f.zero), f.mul(coeff, rcoeff))
                if new == f.zero:
                    acc.pop(rpath, None)
                else:
                    acc[rpath] = new
        return PathVector(f, acc)

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
        """Product in Lambda, bilinear in the memoised word products.

        Two single words with unit coefficients get the memo entry itself,
        so a product must never be modified in place.
        """
        f = self.field
        if len(a.terms) == 1 and len(b.terms) == 1:
            (u, cu), = a.terms.items()
            (v, cv), = b.terms.items()
            if cu == f.one and cv == f.one:
                return self.word_product(u, v)
        acc = {}
        for u, cu in a.terms.items():
            for v, cv in b.terms.items():
                c = f.mul(cu, cv)
                for w, cw in self.word_product(u, v).terms.items():
                    acc[w] = f.add(acc.get(w, f.zero), f.mul(c, cw))
        return PathVector(f, acc)  # drops the terms that cancelled

    # -- normal-word enumeration ---------------------------------------------

    def _grow_words(self, length):
        if self._words_by_len is None:
            q = self.quiver
            self._words_by_len = [[q.vertex_path(v) for v in range(q.num_vertices)]]
        q = self.quiver
        while len(self._words_by_len) <= length:
            prev = self._words_by_len[-1]
            nxt = []
            for w in prev:
                tail_vertex = q.path_target(w)
                for a in range(q.num_arrows):
                    if q.arrow_o[a] != tail_vertex:
                        continue
                    if w.arrows and (w.arrows[-1], a) in self.rules:
                        continue
                    nxt.append(Path(w.o, w.arrows + (a,)))
            self._words_by_len.append(nxt)
        return self._words_by_len[length]

    def basis_words(self, length, o=None, t=None):
        """Normal words of the given length, optionally filtered by vertices."""
        words = self._grow_words(length)
        q = self.quiver
        return [w for w in words
                if (o is None or w.o == o) and (t is None or q.path_target(w) == t)]

    def is_finite_dimensional(self):
        """True iff Lambda has finitely many normal words.

        Normal words of length >= 1 are walks in the graph on arrows with an
        edge a -> b when (a, b) is composable and not a rule head, so finite
        dimensionality is exactly acyclicity of that graph.
        """
        if self._acyclic is not None:
            return self._acyclic
        q = self.quiver
        n = q.num_arrows
        succ = [[b for b in range(n)
                 if q.arrow_t[a] == q.arrow_o[b] and (a, b) not in self.rules]
                for a in range(n)]
        color = [0] * n  # 0 new, 1 active, 2 done

        def has_cycle(a):
            stack = [(a, iter(succ[a]))]
            color[a] = 1
            while stack:
                node, it = stack[-1]
                advanced = False
                for b in it:
                    if color[b] == 1:
                        return True
                    if color[b] == 0:
                        color[b] = 1
                        stack.append((b, iter(succ[b])))
                        advanced = True
                        break
                if not advanced:
                    color[node] = 2
                    stack.pop()
            return False

        self._acyclic = not any(color[a] == 0 and has_cycle(a) for a in range(n))
        return self._acyclic

    def algebra_basis(self, max_len):
        """Normal words of length <= max_len grouped by (length, o, t).

        The flag is True iff no normal word of length max_len exists, in
        which case the listing is the entire basis of Lambda.
        """
        grouped = []
        for length in range(max_len + 1):
            block = {}
            for w in self._grow_words(length):
                block.setdefault((w.o, self.quiver.path_target(w)), []).append(w)
            grouped.append(block)
        finite = not self._grow_words(max_len)
        return grouped, finite

    def dimension(self):
        """dim of Lambda; only meaningful when finite dimensional."""
        total, length = 0, 0
        while True:
            words = self._grow_words(length)
            if not words:
                return total
            total += len(words)
            length += 1


def build_rewrite_system(presentation):
    """Interreduce the quadratic relations and certify confluence.

    The relation span is put in reduced echelon form with coordinates the
    degree-2 paths in descending length-lex order, so each row is monic with
    a distinct leading pair; rows become the rules.  Every degree-3 overlap
    is then reduced along both routes (diamond lemma); any mismatch raises
    NotConfluent, since Koszulity is a standing hypothesis downstream.
    """
    q = presentation.quiver
    f = presentation.field
    # collect the degree-2 paths appearing anywhere, descending order
    support = sorted({p for rel in presentation.relations for p in rel.terms},
                     key=presentation.order_key)
    col_of = {p: i for i, p in enumerate(support)}
    rows = []
    for rel in presentation.relations:
        rows.append({col_of[p]: c for p, c in rel.terms.items()})
    _rref(rows, len(support), f)
    rules = {}
    for row in rows:
        if not row:
            continue  # dependent relation, already spanned
        lead_col = min(row)
        lead = support[lead_col]
        tail_terms = {support[c]: f.neg(v) for c, v in row.items() if c != lead_col}
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
            # overlap word a.b.c
            origin = q.arrow_o[a]
            route1 = rs.normal_form(
                free_multiply(q, tail_ab, PathVector.single(rs.field, q.arrow_path(c))))
            route2 = rs.normal_form(
                free_multiply(q, PathVector.single(rs.field, q.arrow_path(a)), tail_bc))
            if route1 != route2:
                word = Path(origin, (a, b, c))
                raise NotConfluent(
                    f"overlap {q.format_path(word)} resolves to "
                    f"{route1.format(q)} and {route2.format(q)}")
