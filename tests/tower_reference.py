"""The generator tower as the package built it before it read A^!.

Kept as the reference for the dual-basis construction of `koszul`:

* `ReferenceCobasis` takes its generators as given PathVectors and checks
  that each is uniform, homogeneous and made of paths;
* `intersection_tower` builds them by the Koszul intersection recursion
  W_n = (W_{n-1} . kQ_1) intersect (kQ_1 . W_{n-1}), with `_intersect` and
  `_split_blocks`;
* `PivotComultTable` reads the scalars c_pq off the pivot coordinates of
  one reduced echelon form per degree and re-expands every row, raising
  InconsistentBasis when a row does not give its generator back;
* `short_cobasis` and `family_cobasis` are the closed forms of the two
  presets;
* `path_spelling` spells the generators of a `koszul.KoszulCobasis` on
  Paths, joining each word to its next arrow with `Quiver.compose`, as the
  package did before it spelled int codes;
* `leftmost_nf_path` and `leftmost_normal_form` rewrite Paths at their
  leftmost reducible pair of arrows, as `RewriteSystem.nf_path` did before
  it folded paths through `RewriteSystem.times`;
* `normal_form_right_action` multiplies each normal word of A^! by each
  arrow through that leftmost rewriting, as the package did before it read
  the right action off A^!'s rules on word indices;
* `free_multiply` is the product of the free path algebra kQ, which the
  package's confluence check used before it reduced each overlap through
  `RewriteSystem.word_product`.

The intersection.  Because W_{n-1} arrives in reduced echelon form under
the length-lex path order, the left extensions a.w are themselves a
reduced echelon basis of kQ_1 . W_{n-1}: a.w is monic at a.pivot(w) and
zero at every other a'.pivot(w').  Membership in that span is then exact:
x lies in it iff x - sum_p x[p] (extension pivoted at p) is zero.  The
intersection is the kernel of those residues over the right extensions
w.b, which are a reduced echelon basis too, pivoted at pivot(w).b, so a
reduced kernel basis gives a reduced echelon basis of the intersection.
Each level is listed by (origin, target) vertex pair, then by pivot.
"""

from koszulgerst.errors import InconsistentBasis
from koszulgerst.linalg import Matrix, echelon_basis, nullspace_basis
from koszulgerst.quiver import Path, PathVector

from linalg_reference import mul, rref, single


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


class ReferenceCobasis:
    """Ordered uniform generators f^n_i for n = 0..N, given as PathVectors."""

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
                w = next(iter(f.terms))
                level_pairs.append((w.o, quiver.path_target(w)))
            self.pairs.append(level_pairs)
        self._codes = {}

    @property
    def max_degree(self):
        return len(self.elements) - 1

    def count(self, n):
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
        got = self._codes.get((n, i))
        if got is None:
            code = self.quiver.code
            got = self._codes[(n, i)] = {code(w): c for w, c in self.elements[n][i].terms.items()}
        return got


def intersection_tower(presentation, N):
    """The cobasis through degree N by the intersection recursion."""
    q = presentation.quiver
    f = presentation.field
    key = presentation.order_key
    levels = [[single(f, q.vertex_path(v)) for v in range(q.num_vertices)],
              [single(f, q.arrow_path(a)) for a in range(q.num_arrows)]]
    if N >= 2:
        levels.append(_split_blocks(q, echelon_basis(presentation.relations, key), key))
    for n in range(3, N + 1):
        levels.append(_split_blocks(q, _intersect(q, f, levels[n - 1], key), key))
    return ReferenceCobasis(q, levels[:N + 1])


def _intersect(quiver, field, prev, order_key):
    """Basis of (prev . kQ_1) intersect (kQ_1 . prev) in reduced echelon form;
    a pivot not hit by exactly one left extension raises InconsistentBasis."""
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
    # with the leading right pivots last, each kernel vector's free column
    # leads sum x_j u_j with coefficient 1, so the result is reduced echelon
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
    """Order a uniform reduced echelon basis by (origin, target) block, then
    by pivot, the least word under order_key."""
    def block_and_pivot(vec):
        pivot = min(vec.terms, key=order_key)
        return (pivot.o, quiver.path_target(pivot)), order_key(pivot)

    return sorted(vectors, key=block_and_pivot)


class PivotComultTable:
    """The scalars c_pq(n, i, r) read off pivot coordinates, on int codes.

    One RREF of the generators f^r_p augmented by the identity gives pivot
    words P^r_j and a transform T^r with x = sum_p (sum_j x[P^r_j] T^r[j][p])
    f^r_p for every x in span(f^r).  The coefficient of a word w in f^n_i
    is the coordinate of its split (w[:r], w[r:]), so
        c_pq(n, i, r) = sum coeff(w) T^r[j][p] T^{n-r}[l][q]
    over the words w = P^r_j P^{n-r}_l of f^n_i.  Every row is re-expanded
    and must give f^n_i back exactly.  A word of degree n >= 1 is its
    arrows as base-A digits, a degree-0 word its vertex.
    """

    def __init__(self, quiver, cobasis, field):
        self.quiver = quiver
        self.cobasis = cobasis
        self.field = field
        self._cache = {}
        self._pivots = {}

    def scalars(self, n, i, r):
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
        pivots = rref(rows, width + len(level), f, naug=len(level))
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
                continue
            right = cb.codes(n - r, qq)
            for u, cu in cb.codes(r, p).items():
                cu = c * cu
                head = u * shift if r else 0
                for v, cv in right.items():
                    w = head + v if r < n else u
                    acc[w] = acc.get(w, 0) + cu * cv
        return self.field.canon(acc.items())


# -- the closed forms of the two presets -----------------------------------------


def short_cobasis(presentation, N):
    """x^n and sum_{i+j=n-1} x^i y x^j."""
    field = presentation.field
    levels = [[single(field, Path(0, ()))]]
    for n in range(1, N + 1):
        f0 = single(field, Path(0, (0,) * n))
        f1_terms = {}
        for i in range(n):
            f1_terms[Path(0, (0,) * i + (1,) + (0,) * (n - 1 - i))] = field.one
        levels.append([f0, PathVector(field, f1_terms)])
    return ReferenceCobasis(presentation.quiver, levels)


def family_cobasis(presentation, N):
    """f^n_s = f^{n-1}_{s-1} b + (-q)^s f^{n-1}_s a between the pure powers,
    with a^{n-1} c closing each degree."""
    field = presentation.field
    q = presentation.params["q"]
    quiver = presentation.quiver
    a = single(field, Path(0, (0,)))
    b = single(field, Path(0, (1,)))
    c = single(field, Path(0, (2,)))
    levels = [[single(field, Path(0, ())), single(field, Path(1, ()))],
              [a, b, c]]
    minus_q = field.neg(q)
    for n in range(2, N + 1):
        prev = levels[n - 1]
        fs = [free_multiply(quiver, prev[0], a)]  # a^n
        power = field.one
        for s in range(1, n):
            power = mul(field, power, minus_q)  # (-q)^s
            fs.append(free_multiply(quiver, prev[s - 1], b)
                      + free_multiply(quiver, prev[s], a).scale(power))
        fs.append(free_multiply(quiver, prev[n - 1], b))  # b^n
        if n == 2:
            fs.append(free_multiply(quiver, a, c))
        else:
            fs.append(free_multiply(quiver, single(field, Path(0, (0,) * (n - 1))), c))
        levels.append(fs)
    return ReferenceCobasis(quiver, levels)


def path_spelling(cobasis):
    """The levels of PathVectors f^n_j = sum c_pq(n,j,n-1) f^{n-1}_p a_q of a
    KoszulCobasis, the scalars read from its right action of the arrows on
    A^!_{n-1}; each dict lists its words in the order they were spelled."""
    quiver, field = cobasis.quiver, cobasis.dual.field
    compose, arrow = quiver.compose, quiver.arrow_path
    levels = [[single(field, w) for w in cobasis.words[0]]]
    for n in range(1, cobasis.max_degree + 1):
        acc = [{} for _ in cobasis.words[n]]
        for f_u, action in zip(levels[n - 1], cobasis.right_action(n - 1)):
            for a, images in action.items():
                for j, c in images:
                    out = acc[j]
                    for x, cx in f_u.terms.items():
                        xa = compose(x, arrow(a))
                        out[xa] = out.get(xa, 0) + c * cx
        levels.append([PathVector(field, terms) for terms in acc])
    return levels


def leftmost_nf_path(rules, field, path, memo):
    """Normal form of a path under rules {(a, b): tail}, rewriting at the
    leftmost reducible pair of arrows; memo holds the normal form of every
    path met on the way."""
    got = memo.get(path)
    if got is not None:
        return got
    arrows = path.arrows
    k = next((k for k in range(len(arrows) - 1) if (arrows[k], arrows[k + 1]) in rules), -1)
    if k < 0:
        got = single(field, path)
    else:
        acc = {}
        for tpath, tcoeff in rules[(arrows[k], arrows[k + 1])].terms.items():
            replaced = Path(path.o, arrows[:k] + tpath.arrows + arrows[k + 2:])
            for rpath, rcoeff in leftmost_nf_path(rules, field, replaced, memo).terms.items():
                acc[rpath] = acc.get(rpath, 0) + tcoeff * rcoeff
        got = PathVector(field, acc)
    memo[path] = got
    return got


def leftmost_normal_form(rs, vec):
    """The normal form of a kQ element under the rules of the rewrite system
    rs, each path rewritten by leftmost_nf_path."""
    memo, acc = {}, {}
    for path, coeff in vec.terms.items():
        for rpath, rcoeff in leftmost_nf_path(rs.rules, rs.field, path, memo).terms.items():
            acc[rpath] = acc.get(rpath, 0) + coeff * rcoeff
    return PathVector(rs.field, acc)


def normal_form_right_action(cobasis, m):
    """The right action of the arrows on A^!_m as KoszulCobasis.right_action
    computed it before it read A^!'s rules on word indices: each w_j . a is
    a Path of A^! put in normal form by leftmost_nf_path."""
    q, dual, index = cobasis.quiver, cobasis.dual, cobasis.index[m + 1]
    memo = {}
    starting = {}
    for a in range(q.num_arrows):
        starting.setdefault(q.arrow_o[a], []).append(a)
    return [{a: [(index[w], c) for w, c in leftmost_nf_path(
                 dual.rules, dual.field, q.compose(u, q.arrow_path(a)), memo).terms.items()]
             for a in starting.get(t, ())}
            for u, (_, t) in zip(cobasis.words[m], cobasis.pairs[m])]
