"""Generator data for the minimal resolution: the f^n_i and their scalars.

The generators are the dual basis of the quadratic dual A^! = kQ/(R^perp)
(Green-Hartman-Marcos-Solberg, J. Algebra 293 (2005); Priddy, Trans. AMS
152 (1970)).  Here R is the relation span in kQ_2 and R^perp its orthogonal
complement, the paths of each length being orthonormal.

Dual basis.  The generators of degree n span
    W_n = intersection over r + s = n - 2 of kQ_r . R . kQ_s   inside kQ_n,
with W_0 = kQ_0 and W_1 = kQ_1.  The degree-n part of the ideal of A^! is
the sum of the kQ_r . R^perp . kQ_s, and the orthogonal complement of each
of these is kQ_r . R . kQ_s, so W_n is the orthogonal complement of that
ideal: W_n is the dual space of A^!_n.  A basis of normal words w_i of A^!_n
therefore names the generators: f^n_i is the one element of W_n that pairs
to 1 with w_i and to 0 with every other normal word of length n.

The dual presentation.  R^perp is read off the rules of A's certified
rewrite system: a rule lead -> tail is the row lead - tail of R's reduced
echelon basis, which has -tail[p] at each other 2-path p, so R^perp is
spanned by p + sum_rules tail[p] lead, one vector per composable 2-path p
that leads no rule.  Under the reversed arrow order p is the leading word
of its vector, so the normal 2-words of A^! are the leading words of R.  A
quadratic Groebner basis of A gives one of A^! under the opposite order
(PBW duality; Polishchuk-Positselski, Quadratic Algebras (2005), ch. 4), so
the rewrite system of A^! is confluent whenever A's is.

Comultiplicative scalars.  The scalars c_{pq}(n,i,r) are the unique
coefficients with
    f^n_i = sum_{p,q} c_{pq}(n,i,r) f^r_p f^{n-r}_q      (product in kQ).
Concatenation kQ_r (x)_{kQ_0} kQ_{n-r} -> kQ_n is the transpose of the
product A^!_r (x) A^!_{n-r} -> A^!_n, so c_{pq}(n,i,r) = <f^n_i, w_p w_q> is
the coefficient of w_i in the normal form of w_p . w_q in A^!.  They are
products in A^!, so coassociativity and the counit laws of the diagonal are
its associativity and unit.  They are built one letter at a time from the
right action of the arrows on A^!_m, w_j . a = sum c w_k: A^!'s
RewriteSystem.times (rewriting), renumbered once per degree m from the
dual's enumeration order into the generator order.  Slice (r, r) is the
identity row c_{p,t(p)}(r,p,r) = 1; for n > r the split w_q = w_q' . a (its
prefix and last arrow) gives w_p . w_q = (w_p . w_q') . a, so each row k of
slice (n-1, r), pushed through w_k . a, adds into the rows of slice (n, r).

Spelled words.  Only the embedding iota, its delta iota = iota d check and
the basis listing read the words of f^n_i.  They are spelled on first use,
one degree at a time, by the identity at r = n - 1:
    f^n_i = sum_{p,q} c_{pq}(n,i,n-1) f^{n-1}_p a_q,
whose scalars are the right action of the arrows on A^!_{n-1}.  Each word
is spelled once, straight into its int code (Quiver.code: the arrows as
base-A digits, A the number of arrows, the first arrow most significant),
so the word x followed by the arrow a is x * A + a and no Path is built.
The delta iota = iota d check reads the codes as they are, and so does the
structured `resolution` document: it writes the word x * A + a from the
text it wrote for x, the letter a appended.  The Paths of basis and the
letters of KoszulComplex.iota are decoded from the codes by Quiver.decode.

Order.  Degree 0 lists the vertices and degree 1 the arrows, by index; from
degree 2 on the normal words are listed by (origin, target) vertex pair and
then by the length-lex order of A, largest first, so the output is
canonical.
"""

from .errors import InconsistentBasis, NotConfluent
from .quiver import PathVector, QuadraticPresentation
from .rewriting import build_rewrite_system


class KoszulCobasis:
    """Ordered uniform generators f^n_i for n = 0..N, with vertex pairs.

    words[n][i] is the normal word w_i of A^! dual to f^n_i, and dual is the
    rewrite system of A^!.  A word w_i of degree n >= 1 is its prefix w_k
    followed by its last arrow a, held as extensions[n - 1][k] = {a: i}.

    The words of f^n_i are held once, as {code: coeff} (module docstring,
    "Spelled words"): codes(n, i) returns that dict, and f(n, i) and
    elements decode it into PathVectors on each call.  Both raise
    InconsistentBasis for a degree outside 0..max_degree, as right_action
    does outside 0..max_degree - 1.
    """

    def __init__(self, quiver, dual, words):
        self.quiver = quiver
        self.dual = dual
        self.words = words
        self.index = [{w: i for i, w in enumerate(level)} for level in words]
        self.pairs = [[(w.o, quiver.path_target(w)) for w in level] for level in words]
        self.extensions = [[{} for _ in level] for level in words[:-1]]
        for n in range(1, len(words)):
            prefix = self.index[n - 1]
            for i, w in enumerate(words[n]):
                self.extensions[n - 1][prefix[w.o, w.arrows[:-1]]][w.arrows[-1]] = i
        self._right = {}  # m -> right_action(m)
        # spelled f^n: per i, {Quiver.code of a word of f^n_i: coeff}; the
        # word of f^0_v is the vertex v, whose code is v
        self._levels = [[{w.o: dual.field.one} for w in words[0]]]

    @property
    def max_degree(self):
        return len(self.words) - 1

    @property
    def elements(self):
        """Every level of generators as PathVectors; spells and decodes all of them."""
        return [[self.f(n, i) for i in range(self.count(n))]
                for n in range(self.max_degree + 1)]

    def count(self, n):
        """Number of generators in degree n (t_n + 1)."""
        if n < 0 or n > self.max_degree:
            return 0
        return len(self.words[n])

    def f(self, n, i):
        """f^n_i as a PathVector in kQ_n, decoded from its codes."""
        codes, decode, o = self.codes(n, i), self.quiver.decode, self.pairs[n][i][0]
        return PathVector(self.dual.field, {decode(x, n, o): c for x, c in codes.items()})

    def codes(self, n, i):
        """The words of f^n_i as {Quiver.code(word): coeff}, in spelling order."""
        if not 0 <= n <= self.max_degree:
            raise InconsistentBasis(f"degree {n} is outside the cobasis 0..{self.max_degree}")
        while len(self._levels) <= n:
            self._levels.append(self._spell(len(self._levels)))
        return self._levels[n][i]

    def _spell(self, n):
        """Level n from level n-1: f^n_j = sum c_pq(n,j,n-1) f^{n-1}_p a_q,
        where c_pq(n,j,n-1) is the coefficient of w_j in w_p . a_q in A^!.
        A word x of f^{n-1}_p followed by the arrow a has code x * A + a, A
        the number of arrows; at n = 1 the word e_v . a is the arrow a."""
        base = self.quiver.num_arrows if n > 1 else 0
        acc = [{} for _ in self.words[n]]
        for f_u, action in zip(self._levels[n - 1], self.right_action(n - 1)):
            shifted = [(x * base, cx) for x, cx in f_u.items()]
            for a, images in action.items():
                for j, c in images:
                    out = acc[j]
                    for x, cx in shifted:
                        xa = x + a
                        out[xa] = out.get(xa, 0) + c * cx
        canon = self.dual.field.canon
        return [canon(terms.items()) for terms in acc]

    def right_action(self, m):
        """The right action of the arrows on A^!_m, 0 <= m < max_degree: per
        normal word w_j of degree m, {a: [(k, c)]} with w_j . a = sum c w_k,
        for each arrow a that starts where w_j ends, in increasing a.

        The dual's RewriteSystem.times, renumbered from its enumeration
        order into the generator order (module docstring, "Comultiplicative
        scalars")."""
        if not 0 <= m < self.max_degree:
            raise InconsistentBasis(
                f"right action on degree {m} is outside 0..{self.max_degree - 1}")
        got = self._right.get(m)
        if got is not None:
            return got
        q, dual, index = self.quiver, self.dual, self.index
        starting = {}  # vertex -> the arrows that start there
        for a in range(q.num_arrows):
            starting.setdefault(q.arrow_o[a], []).append(a)
        renumber = [index[m + 1][w] for w in dual.basis_words(m + 1)]
        moved = renumber != list(range(len(renumber)))  # else the dual's lists are shared
        got = [None] * self.count(m)
        for j, w in enumerate(dual.basis_words(m)):
            by_arrow = got[index[m][w]] = {a: dual.times(m, j, a)
                                           for a in starting.get(q.path_target(w), ())}
            if moved:
                for a, images in by_arrow.items():
                    by_arrow[a] = [(renumber[k], c) for k, c in images]
        self._right[m] = got
        return got

    def o(self, n, i):
        return self.pairs[n][i]

    def origin(self, n, i):
        return self.pairs[n][i][0]

    def target(self, n, i):
        return self.pairs[n][i][1]


def build_koszul_basis(rs, N):
    """The cobasis through degree N from the normal words of A^!, whose
    relations R^perp are read off the rules of A's certified rewrite system rs."""
    q, f, key = rs.quiver, rs.field, rs.presentation.order_key
    compose, arrow = q.compose, q.arrow_path
    leads = {rule: compose(arrow(rule[0]), arrow(rule[1])) for rule in rs.rules}
    perp = []
    for a in range(q.num_arrows):
        for b in range(q.num_arrows):
            p = compose(arrow(a), arrow(b))
            if p is None or (a, b) in leads:
                continue
            terms = {p: f.one}
            for rule, tail in rs.rules.items():
                if p in tail.terms:
                    terms[leads[rule]] = tail.terms[p]
            perp.append(PathVector(f, terms))
    try:
        dual = build_rewrite_system(QuadraticPresentation(
            q, perp, arrow_order=rs.presentation.arrow_order[::-1], field=f))
    except NotConfluent as err:  # its overlaps are A^!'s, not A's
        raise NotConfluent(f"quadratic dual A^! is not confluent: {err}") from err
    words = [[q.vertex_path(v) for v in range(q.num_vertices)],
             [arrow(a) for a in range(q.num_arrows)]]
    for n in range(2, N + 1):
        words.append(sorted(dual.basis_words(n),
                            key=lambda w: (w.o, q.path_target(w), key(w))))
    return KoszulCobasis(q, dual, words[:N + 1])


class ComultTable:
    """Cache of the scalars c_{pq}(n, i, r): the coefficient of w_i in the
    product w_p . w_q in A^! (module docstring).  Each row lists its (p, q)
    in increasing order and omits zeros.

    Slice (n, r) is built letter by letter into its rows, from the rows of
    slice (n-1, r) and the right action of the arrows on A^!_{n-1}; every
    slice built on the way is cached.
    """

    def __init__(self, cobasis):
        self.cobasis = cobasis
        self._cache = {}  # (n, r) -> list over i of {(p, q): coeff}

    def scalars(self, n, i, r):
        """The row set {(p, q): c_{pq}(n, i, r)}, zeros omitted."""
        rows = self._cache.get((n, r))
        if rows is None:
            if not (0 <= r <= n <= self.cobasis.max_degree):
                raise InconsistentBasis(f"comult slice ({n},{r}) out of range")
            rows = self._slice(n, r)
        return rows[i]

    def _slice(self, n, r):
        """Slice (n, r) from the rows of slice (n-1, r) (module docstring,
        "Comultiplicative scalars"), caching every slice built on the way."""
        rows = self._cache.get((n, r))
        if rows is not None:
            return rows
        cb = self.cobasis
        if n == r:
            one = cb.dual.field.one
            rows = [{(p, t): one} for p, (_, t) in enumerate(cb.pairs[r])]
        else:
            action, extensions = cb.right_action(n - 1), cb.extensions[n - r - 1]
            acc = [{} for _ in cb.words[n]]
            for k, row in enumerate(self._slice(n - 1, r)):
                for (p, prefix), c in row.items():
                    for a, qq in extensions[prefix].items():
                        for i, ci in action[k][a]:
                            out = acc[i]
                            out[p, qq] = out.get((p, qq), 0) + c * ci
            canon = cb.dual.field.canon
            rows = [canon(sorted(terms.items())) for terms in acc]
        self._cache[(n, r)] = rows
        return rows
