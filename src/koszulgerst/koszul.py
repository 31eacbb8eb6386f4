"""Generator data for the minimal resolution: the f^n_i and their scalars.

Degree 0 generators are the vertices, degree 1 the arrows, degree 2 the
interreduced relations; higher degrees are the classical Koszul intersection
    W_n = (W_{n-1} . kQ_1)  intersect  (kQ_1 . W_{n-1})
inside kQ_n, with W_2 the relation span.  Each W_n has a uniform reduced
echelon basis under the length-lex path order, listed by (origin, target)
vertex pair and then by pivot, so the output is canonical.

Because W_{n-1} arrives in that reduced form, the left extensions a.w are
themselves a reduced echelon basis of kQ_1 . W_{n-1}: a.w is monic at
a.pivot(w) (left multiplication by an arrow keeps the length-lex order of
words) and zero at every other a'.pivot(w') (words of a.w start with a, and
w is zero at the other pivots of W_{n-1}).  Membership in that span is then
exact: if x = sum c_p (extension pivoted at p), its coefficient at p is
c_p, so x lies in the span iff x - sum_p x[p] (extension pivoted at p) is
zero.  The intersection is the kernel of those residues over the right
extensions w.b.  These are a reduced echelon basis too, pivoted at
pivot(w).b, so the coefficient of sum x_j (w.b)_j at the j-th right pivot
is x_j, and a reduced kernel basis in x gives a reduced echelon basis of
the intersection.

The comultiplicative scalars c_{pq}(n,i,r) are the unique coefficients with
    f^n_i = sum_{p,q} c_{pq}(n,i,r) f^r_p f^{n-r}_q      (product in kQ).
Concatenation kQ_r (x)_{kQ_0} kQ_{n-r} -> kQ_n is an isomorphism, so they
are read off the pivot coordinates of one reduced echelon form per degree
and then re-expanded to check; zero scalars are dropped, so the stored
scalars are canonical as well.
"""

from .errors import InconsistentBasis
from .linalg import Matrix, _rref, echelon_basis, nullspace_basis
from .quiver import PathVector


class KoszulCobasis:
    """Ordered uniform generators f^n_i for n = 0..N, with vertex pairs.

    Every word of every generator is a path: its origin is its first
    arrow's origin and each arrow starts where the one before it ends.
    """

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
                if not all(map(quiver.is_composable, f.terms)):
                    raise InconsistentBasis(
                        f"degree-{n} generator {f.format(quiver)!r} has a word that is not a path")
                level_pairs.append(f.vertex_pair(quiver))
            self.pairs.append(level_pairs)
        self._codes = {}  # (n, i) -> {Quiver.code of a word of f^n_i: coeff}

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

    def codes(self, n, i):
        """The words of f^n_i as {Quiver.code(word): coeff}, in term order."""
        got = self._codes.get((n, i))
        if got is None:
            code = self.quiver.code
            got = self._codes[(n, i)] = {code(w): c for w, c in self.elements[n][i].terms.items()}
        return got


def build_koszul_basis(presentation, N):
    """Construct the cobasis through degree N by the intersection recursion."""
    q = presentation.quiver
    f = presentation.field
    key = presentation.order_key
    levels = [[PathVector.single(f, q.vertex_path(v)) for v in range(q.num_vertices)],
              [PathVector.single(f, q.arrow_path(a)) for a in range(q.num_arrows)]]
    if N >= 2:
        levels.append(_split_blocks(q, echelon_basis(presentation.relations, key), key))
    for n in range(3, N + 1):
        levels.append(_split_blocks(q, _intersect(q, f, levels[n - 1], key), key))
    return KoszulCobasis(q, levels[:N + 1])


def _intersect(quiver, field, prev, order_key):
    """Basis of (prev . kQ_1) intersect (kQ_1 . prev) in reduced echelon form.

    prev is a uniform reduced echelon basis (module docstring); the result
    is reduced too, its vectors in no particular order.  A combination of
    right extensions u = w.b lies in kQ_1 . prev iff its residue against
    the left extensions is zero.  The residue of u is read in one pass over
    its terms, since no left extension touches another's pivot; a pivot not
    hit by exactly one left extension raises InconsistentBasis.
    """
    compose, one = quiver.compose, field.one
    arrows = [quiver.arrow_path(a) for a in range(quiver.num_arrows)]
    left = {}  # pivot word a.pivot(w) -> terms of a.w
    right = []  # (pivot word pivot(w).b, terms of w.b)
    for w in prev:
        pivot = min(w.terms, key=order_key)
        if w.terms[pivot] != one:
            raise InconsistentBasis(f"{w.format(quiver)!r} is not monic at its pivot")
        for a in arrows:
            ap = compose(a, pivot)
            if ap is None:
                continue
            if ap in left:
                raise InconsistentBasis(f"two left extensions pivot at {quiver.format_path(ap)}")
            left[ap] = {compose(a, p): c for p, c in w.terms.items()}
        for b in arrows:
            pb = compose(pivot, b)
            if pb is not None:
                right.append((pb, {compose(p, b): c for p, c in w.terms.items()}))
    if sum(p in left for terms in left.values() for p in terms) != len(left):
        raise InconsistentBasis("a left extension is not zero at another's pivot")
    if not left or not right:
        return []
    # a kernel vector of nullspace_basis is 1 in its own free column and 0
    # in every later column and in the other kernel vectors' free columns;
    # with the leading right pivots last, the free column's pivot leads
    # sum x_j u_j with coefficient 1, so the result is reduced echelon
    right.sort(key=lambda pu: order_key(pu[0]), reverse=True)
    columns = [u for _, u in right]
    row_of, entries = {}, {}
    for j, u in enumerate(columns):
        residue = dict(u)
        for p, c in u.items():
            ext = left.get(p)
            if ext is not None:
                for path, cv in ext.items():
                    residue[path] = residue.get(path, 0) - c * cv
        for path, c in field.canon(residue.items()).items():
            entries[(row_of.setdefault(path, len(row_of)), j)] = c
    vectors = []
    for ker in nullspace_basis(Matrix(field, len(row_of), len(columns), entries)):
        acc = {}
        for x, u in zip(ker, columns):
            if x:
                for path, c in u.items():
                    acc[path] = acc.get(path, 0) + x * c
        vectors.append(PathVector(field, acc))
    return vectors


def _split_blocks(quiver, vectors, order_key):
    """Order a uniform reduced echelon basis canonically: by (origin, target)
    block, then by pivot, the least word under order_key.

    Both inputs, the relations' echelon_basis and _intersect's output, are
    uniform and reduced echelon already, so each block of them is the
    reduced echelon basis of its part of the span; only the order is new.
    """
    def block_and_pivot(vec):
        pivot = min(vec.terms, key=order_key)
        return (pivot.o, quiver.path_target(pivot)), order_key(pivot)

    return sorted(vectors, key=block_and_pivot)


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

    Words are the int codes of KoszulCobasis.codes, never Paths: a word of
    degree n >= 1 is its arrows as base-A digits (A = num_arrows, the first
    arrow most significant), and a degree-0 word is its vertex.  This is
    exact.  Every word of degree n has n arrows, so a code names one arrow
    sequence, and the cobasis accepts only paths, so a word's origin is
    its first arrow's origin: a code names one word.  For 0 < r < n the
    split of w is divmod(w, A**(n-r)) and the word u.v is u*A**(n-r) + v.
    At r = 0 and r = n one half is a vertex idempotent, which the pivot
    transform of degree 0 keys by vertex; f^n_i is uniform, so that half
    is the vertex f^n_i starts or ends at.  Rows, messages and the c_pq
    values are the same as for Path words.
    """

    def __init__(self, quiver, cobasis, field):
        self.quiver = quiver
        self.cobasis = cobasis
        self.field = field
        self._cache = {}  # (n, r) -> list over i of {(p, q): coeff}
        self._pivots = {}  # r -> {code of pivot word P^r_j: {p: T^r[j][p]}}

    def scalars(self, n, i, r):
        """The row set {(p, q): c_{pq}(n, i, r)}, zeros omitted."""
        return self._slice(n, r)[i]

    def _pivot_transform(self, r):
        got = self._pivots.get(r)
        if got is not None:
            return got
        f, cb = self.field, self.cobasis
        level = [cb.codes(r, p) for p in range(cb.count(r))]
        col_of = {}
        for terms in level:
            for w in terms:
                col_of.setdefault(w, len(col_of))
        width = len(col_of)
        rows = [{**{col_of[w]: c for w, c in terms.items()}, width + p: f.one}
                for p, terms in enumerate(level)]
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
        f, cb = self.field, self.cobasis
        left, right = self._pivot_transform(r), self._pivot_transform(n - r)
        base = self.quiver.num_arrows ** (n - r)
        rows = []
        for i in range(cb.count(n)):
            o, t = cb.o(n, i)
            words = cb.codes(n, i)
            acc = {}
            for w, coeff in words.items():
                head, tail = (o, w) if r == 0 else (w, t) if r == n else divmod(w, base)
                t_left = left.get(head)
                if t_left is None:
                    continue
                t_right = right.get(tail)
                if t_right is None:
                    continue
                for p, cp in t_left.items():
                    cp = coeff * cp
                    for qq, cq in t_right.items():
                        acc[(p, qq)] = acc.get((p, qq), 0) + cp * cq
            row = f.canon(sorted(acc.items()))
            if self._expand(n, r, row) != words:
                raise InconsistentBasis(
                    f"no comultiplicative scalars for f^{n}_{i} at split r={r}")
            rows.append(row)
        self._cache[(n, r)] = rows
        return rows

    def _expand(self, n, r, row):
        """sum c_pq f^r_p f^{n-r}_q in kQ_n, as a code dict without zeros."""
        cb = self.cobasis
        shift = self.quiver.num_arrows ** (n - r)
        acc = {}
        for (p, qq), c in row.items():
            if cb.target(r, p) != cb.origin(n - r, qq):
                continue  # generators are uniform, so the product is zero
            right = cb.codes(n - r, qq)
            for u, cu in cb.codes(r, p).items():
                cu = c * cu
                head = u * shift if r else 0  # a vertex factor spells no arrow
                for v, cv in right.items():
                    w = head + v if r < n else u
                    acc[w] = acc.get(w, 0) + cu * cv
        return self.field.canon(acc.items())
