"""The minimal bimodule resolution K and its structure maps.

K_n is free over the enveloping algebra on generators eps^n_i, one per
cobasis element f^n_i; an element is a combination of terms u . eps^n_i . v
with u, v normal words bracketing the generator's vertex pair.  This module
implements the differential, the diagonal (as symbolic index pairs), the
embedding iota into the reduced bar complex, and the identity checker used by
the acceptance suite:

    d o d = 0,    (d ox 1 + 1 ox d) Delta = Delta d,
    (Delta ox 1) Delta = (1 ox Delta) Delta,   counit laws,
    delta o iota = iota o d.

Every check keys its terms by ints and adds lhs - rhs (rhs 0 for d o d)
into one dict that field.canon reduces once per generator (_check_sides).  Each
call of verify_resolution builds an int view of d (_letter_view): the
terms u . eps^{n-1}_j . v of d(eps^n_i) become (u, j, v, coeff), a vertex
v being the int v and an arrow a the int V + a, with a table of the
normal forms of the products of two letters.  The view is dropped when the
call returns, so it never outlives a change to the cached d.

d o d = 0 sums u.u2 . eps_k . v2.v over that table; in degree 1 it is the
augmentation u . e_j . v -> u.v.  The three Delta identities are checked
on the diagonal's index data.  Every decoration in
Delta(eps^n_r) = sum c_pq(n,r,v) eps^v_p ox eps^{n-v}_q is a generator's
vertex idempotent, and c_pq != 0 only for composable (p, q): f^n_r, f^v_p
and f^{n-v}_q are vertex-homogeneous, so p starts where r does, q ends
where r does, and p ends where q starts.  A term is therefore fixed by
(v, p, q), and products against idempotents change nothing:
coassociativity compares (v1, v2, p1, p2, p3) keys, the counit laws sum
c_pq(n,r,0) and c_pq(n,r,n) over the generators at the matching vertex, and
the dg identity places the letters of d(eps) in its 6-int keys as they are.

delta o iota = iota o d is checked on codes (Quiver.code, one per word of
f^n_i: the cobasis spells each word straight into its code and holds
nothing else) and the letter view of d, each bar word keyed by ints
(_check_iota).  iota, iota_bimodule and restrict_along_iota read the
letters of the same words, decoded from their codes by Quiver.decode
(_letters).  No check calls the Path-level maps (differential, sandwich,
iota, iota_bimodule, bar_delta).

Witnesses.  Only a failing generator is spelled out, in one format for all
five identities: the first term of lhs - rhs in repr order of its decoded
key, words in path notation, as in "term (x, eps^1_0, y): -1"; a counit
witness names its side, as in "term (mu ox 1, eps^2_0): 1".

Every bimodule-linear map goes through one kernel,
sandwich_into(out, u, terms, v, scale), which adds scale . (u . x . v) for
normal words u, v straight into a term dict, using the memoised word
products.  sandwich and differential here, and the liftings in lifting.py,
are loops over it; each hands its dict to the BimoduleElement constructor
once at the end, which reduces the natively accumulated values and drops
zeros (field.canon).

Sign conventions, fixed once for every consumer: the differential carries
(-1)^n on right-hand terms, and Koszul signs are (1 ox g)(x ox y) =
(-1)^{|g| |x|} x . g(y) for a map g of degree |g| against a left factor of
homological degree |x|.
"""

from typing import NamedTuple

from .errors import DegreeUnderflow
from .koszul import ComultTable, build_koszul_basis
from .linalg import GradedVector
from .quiver import Path
from .rewriting import build_rewrite_system


class BimoduleElement(GradedVector):
    """Element of K_n: terms map (left word, generator index, right word)."""

    __slots__ = ()

    def format(self, quiver):
        words = []
        for (u, i, v) in sorted(self.terms, key=lambda k: (k[1], k[0], k[2])):
            word = f"eps^{self.degree}_{i}"
            if u.arrows:
                word = f"{quiver.format_path(u)}.{word}"
            if v.arrows:
                word = f"{word}.{quiver.format_path(v)}"
            words.append((word, self.terms[(u, i, v)]))
        return self._format_sum(words)


class DiagonalTerm(NamedTuple):
    """One summand eps^{left_degree}_{left_index} ox eps^{n-left_degree}_{right_index}."""

    left_degree: int
    left_index: int
    right_index: int
    coeff: object


class ResolutionReport(NamedTuple):
    ok: bool
    checked: list
    failures: list  # (identity, degree, index, witness string)


class KoszulComplex:
    """All resolution data for one presentation, built through degree N."""

    def __init__(self, presentation, N):
        self.presentation = presentation
        self.quiver = presentation.quiver
        self.field = presentation.field
        self.N = N
        self.rs = build_rewrite_system(presentation)
        self.cobasis = build_koszul_basis(self.rs, N)
        self.comult = ComultTable(self.cobasis)
        self._diff_cache = {}
        self._diag_cache = {}
        self._iota_index = {}  # n -> {arrow Paths of a word: [(i, coeff in f^n_i)]}
        self._bar_tuples = {}  # n -> composable n-tuples of words (bracket.bar_tuples)
        self._lifting_systems = {}  # (k, ell, o, t) -> lifting._LiftingSystem
        self._coboundary_slices = {}  # (n, ell) -> cohomology._CoboundarySlice

    # -- basic accessors ------------------------------------------------------

    def count(self, n):
        return self.cobasis.count(n)

    def c(self, n, i, r):
        return self.comult.scalars(n, i, r)

    # -- bimodule arithmetic ---------------------------------------------------

    def sandwich_into(self, out, u, terms, v, scale):
        """Add scale . (u . x . v) into the term dict out, for normal words u, v
        and the terms of an element x of K; out may be left holding zeros and,
        over F_p, unreduced values."""
        word_product = self.rs.word_product
        for (u0, i, v0), coeff in terms.items():
            new_u = word_product(u, u0).terms
            if not new_u:
                continue
            new_v = word_product(v0, v).terms
            c0 = scale * coeff
            for up, uc in new_u.items():
                cu = c0 * uc
                for vp, vc in new_v.items():
                    key = (up, i, vp)
                    out[key] = out.get(key, 0) + cu * vc

    def sandwich(self, left, x, right):
        """left . x . right with left/right elements of Lambda (PathVectors)."""
        out = {}
        for u, uc in left.terms.items():
            for v, vc in right.terms.items():
                self.sandwich_into(out, u, x.terms, v, uc * vc)
        return BimoduleElement(self.field, x.degree, out)

    # -- differential ----------------------------------------------------------

    def _diff_eps(self, n, i):
        got = self._diff_cache.get((n, i))
        if got is not None:
            return got
        q = self.quiver
        sign = -1 if n % 2 else 1
        terms = {}
        for (p, j), c in self.c(n, i, 1).items():
            key = (q.arrow_path(p), j, q.vertex_path(self.cobasis.target(n - 1, j)))
            terms[key] = terms.get(key, 0) + c
        for (j, p), c in self.c(n, i, n - 1).items():
            key = (q.vertex_path(self.cobasis.origin(n - 1, j)), j, q.arrow_path(p))
            terms[key] = terms.get(key, 0) + sign * c
        out = BimoduleElement(self.field, n - 1, terms)
        self._diff_cache[(n, i)] = out
        return out

    def differential(self, x):
        """d_n extended bimodule-linearly; degree 0 input is an error."""
        if x.degree == 0:
            raise DegreeUnderflow("differential takes elements of degree >= 1")
        out = {}
        for (u, i, v), coeff in x.terms.items():
            self.sandwich_into(out, u, self._diff_eps(x.degree, i).terms, v, coeff)
        return BimoduleElement(self.field, x.degree - 1, out)

    # -- diagonal ----------------------------------------------------------------

    def diagonal(self, n, r):
        """All terms of Delta(eps^n_r) as (left degree, p, q, coeff)."""
        got = self._diag_cache.get((n, r))
        if got is not None:
            return got
        out = []
        for v in range(n + 1):
            for (p, q), c in self.c(n, r, v).items():
                out.append(DiagonalTerm(v, p, q, c))
        self._diag_cache[(n, r)] = out
        return out

    # -- bar embedding -------------------------------------------------------------

    def _letters(self, n, i):
        """The words of f^n_i spelled letter by letter, decoded from their
        codes: [(arrow Paths, coeff)] in spelling order."""
        arrow, decode = self.quiver.arrow_path, self.quiver.decode
        return [(tuple(arrow(a) for a in decode(x, n)), c)
                for x, c in self.cobasis.codes(n, i).items()]

    def iota(self, n, r):
        """iota(eps^n_r) = e_o ox (letterwise expansion of f^n_r) ox e_t."""
        q, (o, t) = self.quiver, self.cobasis.o(n, r)
        u, v = q.vertex_path(o), q.vertex_path(t)
        return GradedVector(self.field, n, {(u,) + letters + (v,): c
                                            for letters, c in self._letters(n, r)})

    def iota_bimodule(self, x):
        """iota extended to K: u . eps^n_i . v -> u ox f-letters ox v."""
        out = {}
        for (u, i, v), coeff in x.terms.items():
            for letters, c in self._letters(x.degree, i):
                word = (u,) + letters + (v,)
                out[word] = out.get(word, 0) + coeff * c
        return GradedVector(self.field, x.degree, out)

    def bar_delta(self, bar):
        """Bar differential: alternating sum of adjacent multiplications."""
        out = {}
        for word, coeff in bar.terms.items():
            for k in range(len(word) - 1):
                signed = -coeff if k % 2 else coeff
                prod = self.rs.word_product(word[k], word[k + 1])
                for path, pc in prod.terms.items():
                    merged = word[:k] + (path,) + word[k + 2:]
                    out[merged] = out.get(merged, 0) + signed * pc
        return GradedVector(self.field, bar.degree - 1, out)

    # -- identity checks -----------------------------------------------------------

    def verify_resolution(self):
        """Check every structural identity through degree N, exactly."""
        N = self.N
        view = self._letter_view(N)  # built per call: _diff_cache may change between calls
        checked, failures = [], []
        self._check_d_squared(N, view, checked, failures)
        self._check_dg_compat(N, view, checked, failures)
        self._check_coassoc(N, checked, failures)
        self._check_counit(N, checked, failures)
        self._check_iota(N, view, checked, failures)
        return ResolutionReport(not failures, checked, failures)

    def _letter_view(self, N):
        """(letters, diff, products, words): diff[(n, i)] lists (u, j, v,
        coeff) for the terms u . eps^{n-1}_j . v of d(eps^n_i), n <= N, on int
        letters, a vertex v being v and an arrow a being V + a (every
        decoration of d is one letter); letters[x] is the shared Path of x,
        products[x * len(letters) + y] lists (word id, coeff) for the normal
        form of x.y in A, and words[x] is the Path of word id x."""
        q, V = self.quiver, self.quiver.num_vertices
        letter_of = {q.vertex_path(v): v for v in range(V)}
        letter_of.update((q.arrow_path(a), V + a) for a in range(q.num_arrows))
        diff = {}
        for n in range(1, N + 1):
            for i in range(self.count(n)):
                diff[(n, i)] = [(letter_of[u], j, letter_of[v], c)
                                for (u, j, v), c in self._diff_eps(n, i).terms.items()]
        letters, word_of, word_product = list(letter_of), {}, self.rs.word_product
        products = [[(word_of.setdefault(w, len(word_of)), c)
                     for w, c in word_product(x, y).terms.items()]
                    for x in letters for y in letters]
        return letters, diff, products, list(word_of)

    def _check_d_squared(self, N, view, checked, failures):
        """d d(eps^n_i) = 0 keyed (word id, generator, word id), and at n = 1
        the augmentation of d(eps^1_i) keyed by word id; a witness spells the
        key (word, eps^{n-2}_k, word), or (word,) at n = 1."""
        letters, diff, products, words = view
        L = len(letters)

        def sides(n, i, acc):
            if n == 1:  # u . e_j . v -> u.v
                for u, _, v, c in diff[(1, i)]:
                    for x, cx in products[u * L + v]:
                        acc[x] = acc.get(x, 0) + c * cx
                return
            # u . (u2 . eps_k . v2) . v -> (u.u2) . eps_k . (v2.v)
            for u, j, v, c in diff[(n, i)]:
                for u2, k, v2, c2 in diff[(n - 1, j)]:
                    left = products[u * L + u2]
                    if not left:
                        continue
                    right, cc = products[v2 * L + v], c * c2
                    for x, cx in left:
                        cl = cc * cx
                        for y, cy in right:
                            key = (x, k, y)
                            acc[key] = acc.get(key, 0) + cl * cy

        self._check_sides("d*d=0", 1, N, sides,
                          lambda n, k: (words[k],) if n == 1 else (
                              words[k[0]], f"eps^{n - 2}_{k[1]}", words[k[2]]),
                          checked, failures)

    def _check_sides(self, name, n0, N, sides, decode, checked, failures):
        """Check lhs = rhs at each eps^n_r, n0 <= n <= N, where sides(n, r, acc)
        adds lhs - rhs into acc; a failing generator's witness is the first
        nonzero term in repr order of decode(n, key), with its coefficient."""
        f, q = self.field, self.quiver
        for n in range(n0, N + 1):
            for r in range(self.count(n)):
                acc = {}
                sides(n, r, acc)
                nonzero = f.canon(acc.items())
                if nonzero:
                    key, c = min(((decode(n, key), c) for key, c in nonzero.items()),
                                 key=lambda term: repr(term[0]))
                    shown = ", ".join(q.format_path(k) if isinstance(k, Path) else str(k)
                                      for k in key)
                    failures.append((name, n, r, f"term ({shown}): {f.format(c)}"))
        checked.append(name)

    def _check_dg_compat(self, N, view, checked, failures):
        """Both sides keyed (dl, u, p, w, q, v) for u . eps^dl_p . w ox
        eps^{n-1-dl}_q . v, with u, w, v int letters (Paths in the witness)."""
        cb, diagonal, (letters, diff, _, _) = self.cobasis, self.diagonal, view

        def sides(n, r, acc):
            for dl, p, q, coeff in diagonal(n, r):
                if dl >= 1:  # d(eps^dl_p) ox eps_q
                    v = cb.target(n - dl, q)
                    for u2, p2, w2, c2 in diff[(dl, p)]:
                        key = (dl - 1, u2, p2, w2, q, v)
                        acc[key] = acc.get(key, 0) + coeff * c2
                if dl < n:  # (-1)^dl eps_p ox d(eps^{n-dl}_q)
                    signed = -coeff if dl % 2 else coeff
                    u = cb.origin(dl, p)
                    for w2, q2, v2, c2 in diff[(n - dl, q)]:
                        key = (dl, u, p, w2, q2, v2)
                        acc[key] = acc.get(key, 0) + signed * c2
            # Delta(u . eps^{n-1}_i . v) puts u and v around each diagonal term
            for u, i, v, coeff in diff[(n, r)]:
                for dl, p, q, c in diagonal(n - 1, i):
                    key = (dl, u, p, cb.target(dl, p), q, v)
                    acc[key] = acc.get(key, 0) - coeff * c

        self._check_sides("(d ox 1 + 1 ox d)Delta = Delta d", 1, N, sides,
                          lambda n, k: (k[0], letters[k[1]], k[2], letters[k[3]], k[4],
                                        letters[k[5]]),
                          checked, failures)

    def _check_coassoc(self, N, checked, failures):
        """Both sides keyed (v1, v2, p1, p2, p3) for eps^v1_p1 ox eps^v2_p2 ox eps_p3."""
        diagonal = self.diagonal

        def sides(n, r, acc):
            for dl, p, q, coeff in diagonal(n, r):
                for v2, p2, q2, c2 in diagonal(dl, p):  # (Delta ox 1)
                    key = (v2, dl - v2, p2, q2, q)
                    acc[key] = acc.get(key, 0) + coeff * c2
                for v2, p2, q2, c2 in diagonal(n - dl, q):  # (1 ox Delta)
                    key = (dl, v2, p, p2, q2)
                    acc[key] = acc.get(key, 0) - coeff * c2

        self._check_sides("(Delta ox 1)Delta = (1 ox Delta)Delta", 0, N, sides,
                          lambda n, k: k, checked, failures)

    def _check_counit(self, N, checked, failures):
        """mu sends e_p ox eps^n_q to eps^n_q when q starts at vertex p (the
        degree-0 generator p is e_p), and eps^n_p ox e_q to eps^n_p when p
        ends at q; both sides minus eps^n_r, keyed (side, generator) with
        side 0 for (mu ox 1) and 1 for (1 ox mu)."""
        cb, c = self.cobasis, self.c

        def sides(n, r, acc):
            for (p, q), coeff in c(n, r, 0).items():
                if cb.origin(n, q) == p:
                    acc[(0, q)] = acc.get((0, q), 0) + coeff
            for (p, q), coeff in c(n, r, n).items():
                if cb.target(n, p) == q:
                    acc[(1, p)] = acc.get((1, p), 0) + coeff
            for key in ((0, r), (1, r)):
                acc[key] = acc.get(key, 0) - 1

        self._check_sides("(mu ox 1)Delta = id = (1 ox mu)Delta", 0, N, sides,
                          lambda n, k: (("mu ox 1", "1 ox mu")[k[0]], f"eps^{n}_{k[1]}"),
                          checked, failures)

    def _check_iota(self, N, view, checked, failures):
        """delta iota = iota d at each eps^n_r, on codes and the letter view.

        delta merges entries k and k+1 of e_o ox a_1 ox .. ox a_n ox e_t with
        sign (-1)^k.  k = 0 gives a_1 ox .. ox a_n ox e_t, keyed (V + a_1,
        code of a_2..a_n, t); k = n gives e_o ox .. ox a_n, keyed (o, code of
        a_1..a_{n-1}, V + a_n); each term u . eps_j . v of d spells u ox w ox v
        for each word w of f^{n-1}_j, keyed (u, code of w, v), the code 0 at
        n = 1.  For 0 < k < n each word m of the normal form of a_k.a_{k+1}
        is keyed (k, code with m's two digits in place of theirs).

        Above degree 2 the middle merges are added only where the outer keys
        fail or an f^{n-1}_j named in d(eps^n_r) failed, so a failing sum is
        complete; else they vanish by induction: once the k = 0 keys agree,
        f^n_r = sum c . a ox f^{n-1}_j, whose merge at k >= 2 is one inside
        an f^{n-1}_j, and the k = n keys do the same for k <= n - 2.
        """
        name = "delta iota = iota d"
        f, cb, q = self.field, self.cobasis, self.quiver
        letters, diff, products, words = view
        V, A, L, code, arrow = q.num_vertices, q.num_arrows, len(letters), q.code, q.arrow_path
        # a * A + b -> [(code, coeff)] of the normal form of the two-arrow word a.b
        pair_nf = [[(code(words[x]), c) for x, c in products[(V + a) * L + V + b]]
                   for a in range(A) for b in range(A)]

        def sides(n, r, acc):
            o, t = cb.o(n, r)
            lead, codes = A ** (n - 1), cb.codes(n, r)
            for w, c in codes.items():
                key = (V + w // lead, w % lead, t)
                acc[key] = acc.get(key, 0) + c
                key = (o, w // A, V + w % A)
                acc[key] = acc.get(key, 0) + (-c if n % 2 else c)
            for u, j, v, c in diff[(n, r)]:
                for w, cw in cb.codes(n - 1, j).items():
                    key = (u, w if n > 1 else 0, v)
                    acc[key] = acc.get(key, 0) - c * cw
            if n >= 3 and not f.canon(acc.items()) and not any(
                    fail[:3] == (name, n - 1, j) for fail in failures for _, j, _, _ in diff[(n, r)]):
                acc.clear()
                return
            merges = [(k, A ** (n - 1 - k), k % 2) for k in range(1, n)]
            for w, c in codes.items():
                for k, place, odd in merges:
                    pair = w // place % (A * A)
                    rest, signed = w - pair * place, -c if odd else c
                    for m, cm in pair_nf[pair]:
                        key = (k, rest + m * place)
                        acc[key] = acc.get(key, 0) + signed * cm

        def decode(n, key):
            """The bar word that key spells, in Paths."""
            if len(key) == 3:
                first, x, last = key
                return (letters[first], *map(arrow, q.decode(x, n - 1)), letters[last])
            k, x = key
            arrows = q.decode(x, n)
            merged = q.decode(arrows[k - 1] * A + arrows[k], 2, q.arrow_o[arrows[k - 1]])
            return (q.vertex_path(q.arrow_o[arrows[0]]), *map(arrow, arrows[:k - 1]), merged,
                    *map(arrow, arrows[k + 1:]), q.vertex_path(q.arrow_t[arrows[-1]]))

        self._check_sides(name, 1, N, sides, decode, checked, failures)
