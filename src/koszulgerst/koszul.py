"""Generator data for the minimal resolution: the f^n_i and their scalars.

Degree 0 generators are the vertices, degree 1 the arrows, degree 2 the
interreduced relations; higher degrees are the classical Koszul intersection
    W_n = (W_{n-1} . kQ_1)  intersect  (kQ_1 . W_{n-1})
inside kQ_n, with W_2 the relation span.  Each W_n is split into blocks by
(origin, target) vertex pair (forcing uniform generators) and put in reduced
echelon form under the length-lex path order, so the output is canonical.

The comultiplicative scalars c_{pq}(n,i,r) are the unique coefficients with
    f^n_i = sum_{p,q} c_{pq}(n,i,r) f^r_p f^{n-r}_q      (product in kQ).
Concatenation kQ_r (x)_{kQ_0} kQ_{n-r} -> kQ_n is an isomorphism, so they
are read off the pivot coordinates of one reduced echelon form per degree
and then re-expanded to check; zero scalars are dropped, so the stored
scalars are canonical as well.
"""

from .errors import InconsistentBasis
from .linalg import Matrix, _rref, echelon_basis, nullspace_basis
from .quiver import PathVector, free_multiply


class KoszulCobasis:
    """Ordered uniform generators f^n_i for n = 0..N, with vertex pairs."""

    def __init__(self, quiver, elements):
        self.quiver = quiver
        self.elements = [list(level) for level in elements]
        self.pairs = []
        for n, level in enumerate(self.elements):
            level_pairs = []
            for f in level:
                if f.is_zero() or not f.is_uniform(quiver) or f.lengths() != {n}:
                    raise InconsistentBasis(
                        f"degree-{n} generator {f.format(quiver)!r} is not uniform homogeneous")
                level_pairs.append(f.vertex_pair(quiver))
            self.pairs.append(level_pairs)

    @property
    def max_degree(self):
        return len(self.elements) - 1

    def count(self, n):
        """Number of generators in degree n (t_n + 1)."""
        if n < 0 or n > self.max_degree:
            return 0
        return len(self.elements[n])

    def f(self, n, i):
        return self.elements[n][i]

    def o(self, n, i):
        return self.pairs[n][i]

    def origin(self, n, i):
        return self.pairs[n][i][0]

    def target(self, n, i):
        return self.pairs[n][i][1]


def build_koszul_basis(presentation, rs, N):
    """Construct the cobasis through degree N by the intersection recursion."""
    q = presentation.quiver
    f = presentation.field
    key = presentation.order_key
    levels = [[PathVector.single(f, q.vertex_path(v)) for v in range(q.num_vertices)],
              [PathVector.single(f, q.arrow_path(a)) for a in range(q.num_arrows)]]
    if N >= 2:
        levels.append(_split_blocks(q, echelon_basis(presentation.relations, key), key))
    n = 3
    while n <= N:
        prev = levels[n - 1]
        if not prev:
            levels.append([])
            n += 1
            continue
        arrows = [PathVector.single(f, q.arrow_path(a)) for a in range(q.num_arrows)]
        right_ext = [w for v in prev for a in arrows
                     if not (w := free_multiply(q, v, a)).is_zero()]
        left_ext = [w for a in arrows for v in prev
                    if not (w := free_multiply(q, a, v)).is_zero()]
        levels.append(_split_blocks(q, _intersect(f, right_ext, left_ext, key), key))
        n += 1
    return KoszulCobasis(q, levels[:N + 1])


def _intersect(field, span_u, span_v, order_key):
    """Basis of span(span_u) intersect span(span_v)."""
    if not span_u or not span_v:
        return []
    support = sorted({p for v in span_u + span_v for p in v.terms}, key=order_key)
    row_of = {p: i for i, p in enumerate(support)}
    nu, nv = len(span_u), len(span_v)
    entries = {}
    for j, vec in enumerate(span_u):
        for path, coeff in vec.terms.items():
            entries[(row_of[path], j)] = coeff
    for j, vec in enumerate(span_v):
        for path, coeff in vec.terms.items():
            entries[(row_of[path], nu + j)] = field.neg(coeff)
    A = Matrix(field, len(support), nu + nv, entries)
    vectors = []
    for ker in nullspace_basis(A):
        acc = {}
        for j in range(nu):
            if ker[j] != field.zero:
                for path, c in span_u[j].terms.items():
                    acc[path] = field.add(acc.get(path, field.zero), field.mul(c, ker[j]))
        vec = PathVector(field, acc)
        if not vec.is_zero():
            vectors.append(vec)
    return echelon_basis(vectors, order_key)


def _split_blocks(quiver, vectors, order_key):
    """Split a graded subspace basis into uniform (o, t)-blocks, canonically."""
    blocks = {}
    for vec in vectors:
        parts = {}
        for path, coeff in vec.terms.items():
            pair = (path.o, quiver.path_target(path))
            parts.setdefault(pair, {})[path] = coeff
        for pair, terms in parts.items():
            blocks.setdefault(pair, []).append(PathVector(vec.field, terms))
    out = []
    for pair in sorted(blocks):
        out.extend(echelon_basis(blocks[pair], order_key))
    return out


class ComultTable:
    """Cache of the scalars c_{pq}(n, i, r), read off pivot coordinates.

    One RREF of the generators f^r_p augmented by the identity gives pivot
    words P^r_j and a transform T^r with, for every x in span(f^r),
        x = sum_p (sum_j x[P^r_j] T^r[j][p]) f^r_p.
    The coefficient of a word w in f^n_i is the coordinate of its split
    (w[:r], w[r:]), so
        c_{pq}(n, i, r) = sum coeff(w) T^r[j][p] T^{n-r}[l][q]
    over the words w = P^r_j P^{n-r}_l of f^n_i.  Every row is re-expanded
    and must give f^n_i back exactly; a miss, or linearly dependent
    generators in one degree, raises InconsistentBasis.

    The split words and the re-expanded words are plain (origin, arrows)
    tuples, never Paths.  Path is a tuple subclass that adds no fields and
    no comparison of its own, so (o, arrows) hashes and compares equal to
    Path(o, arrows): looking one up among Path keys, or comparing a dict
    of them with f^n_i.terms, is exact.  No such tuple leaves this class.
    """

    def __init__(self, quiver, cobasis, field):
        self.quiver = quiver
        self.cobasis = cobasis
        self.field = field
        self._cache = {}  # (n, r) -> list over i of {(p, q): coeff}
        self._pivots = {}  # r -> {pivot word P^r_j: {p: T^r[j][p]}}

    def scalars(self, n, i, r):
        """The row set {(p, q): c_{pq}(n, i, r)}, zeros omitted."""
        return self._slice(n, r)[i]

    def _pivot_transform(self, r):
        got = self._pivots.get(r)
        if got is not None:
            return got
        f, level = self.field, self.cobasis.elements[r]
        col_of = {}
        for vec in level:
            for path in vec.terms:
                col_of.setdefault(path, len(col_of))
        width = len(col_of)
        rows = [{**{col_of[path]: c for path, c in vec.terms.items()}, width + p: f.one}
                for p, vec in enumerate(level)]
        pivots = _rref(rows, width + len(level), f, naug=len(level))
        if len(pivots) < len(level):
            raise InconsistentBasis(f"degree-{r} generators are linearly dependent")
        words = list(col_of)
        got = {words[col]: {c - width: v for c, v in rows[j].items() if c >= width}
               for j, col in enumerate(pivots)}
        self._pivots[r] = got
        return got

    def _slice(self, n, r):
        got = self._cache.get((n, r))
        if got is not None:
            return got
        if not (0 <= r <= n <= self.cobasis.max_degree):
            raise InconsistentBasis(f"comult slice ({n},{r}) out of range")
        arrow_t, f, cb = self.quiver.arrow_t, self.field, self.cobasis
        left, right = self._pivot_transform(r), self._pivot_transform(n - r)
        rows = []
        for i in range(cb.count(n)):
            acc = {}
            for w, coeff in cb.f(n, i).terms.items():
                head = w.arrows[:r]
                t_left = left.get((w.o, head))
                if t_left is None:
                    continue
                t_right = right.get((arrow_t[head[-1]] if head else w.o, w.arrows[r:]))
                if t_right is None:
                    continue
                for p, cp in t_left.items():
                    cp = f.mul(coeff, cp)
                    for qq, cq in t_right.items():
                        acc[(p, qq)] = f.add(acc.get((p, qq), f.zero), f.mul(cp, cq))
            row = {pq: c for pq, c in sorted(acc.items()) if c != f.zero}
            if self._expand(n, r, row) != cb.f(n, i).terms:
                raise InconsistentBasis(
                    f"no comultiplicative scalars for f^{n}_{i} at split r={r}")
            rows.append(row)
        self._cache[(n, r)] = rows
        return rows

    def _expand(self, n, r, row):
        """sum c_pq f^r_p f^{n-r}_q in kQ_n, as a term dict without zeros."""
        f, cb = self.field, self.cobasis
        acc = {}
        for (p, qq), c in row.items():
            if cb.target(r, p) != cb.origin(n - r, qq):
                continue  # generators are uniform, so the product is zero
            right = cb.f(n - r, qq).terms
            for u, cu in cb.f(r, p).terms.items():
                cu = f.mul(c, cu)
                for v, cv in right.items():
                    w = (u.o, u.arrows + v.arrows)
                    acc[w] = f.add(acc.get(w, f.zero), f.mul(cu, cv))
        return {w: c for w, c in acc.items() if c != f.zero}
