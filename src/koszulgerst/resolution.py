"""The minimal bimodule resolution K and its structure maps.

K_n is free over the enveloping algebra on generators eps^n_i, one per
cobasis element f^n_i; an element is a combination of terms u . eps^n_i . v
with u, v normal words bracketing the generator's vertex pair.  This module
implements the differential, the augmentation, the diagonal (as symbolic
index pairs), the embedding iota into the reduced bar complex, the angle
components of the differential, and the identity checker used by the
acceptance suite:

    d o d = 0,    (d ox 1 + 1 ox d) Delta = Delta d,
    (Delta ox 1) Delta = (1 ox Delta) Delta,   counit laws,
    delta o iota = iota o d.

Sign conventions, fixed once for every consumer: the differential carries
(-1)^n on right-hand terms, and Koszul signs are (1 ox g)(x ox y) =
(-1)^{|g| |x|} x . g(y) for a map g of degree |g| against a left factor of
homological degree |x|.
"""

from typing import NamedTuple

from .errors import DegreeUnderflow, InconsistentBasis
from .koszul import ComultTable, build_koszul_basis
from .quiver import PathVector
from .rewriting import build_rewrite_system


class BimoduleElement:
    """Element of K_n: terms map (left word, generator index, right word)."""

    __slots__ = ("field", "degree", "terms")

    def __init__(self, field, degree, terms=None):
        self.field = field
        self.degree = degree
        self.terms = {}
        if terms:
            for key, coeff in (terms.items() if isinstance(terms, dict) else terms):
                if coeff != field.zero:
                    self.terms[key] = coeff

    @classmethod
    def zero(cls, field, degree):
        return cls(field, degree)

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        assert self.degree == other.degree
        f = self.field
        out = dict(self.terms)
        for key, c in other.terms.items():
            new = f.add(out.get(key, f.zero), c)
            if new == f.zero:
                out.pop(key, None)
            else:
                out[key] = new
        return BimoduleElement(f, self.degree, out)

    def __sub__(self, other):
        return self + other.scale(self.field.neg(self.field.one))

    def __neg__(self):
        return self.scale(self.field.neg(self.field.one))

    def scale(self, coeff):
        f = self.field
        if coeff == f.zero:
            return BimoduleElement(f, self.degree)
        return BimoduleElement(f, self.degree,
                               {k: f.mul(c, coeff) for k, c in self.terms.items()})

    def __eq__(self, other):
        return (isinstance(other, BimoduleElement) and self.degree == other.degree
                and self.terms == other.terms)

    def format(self, quiver):
        if not self.terms:
            return "0"
        bits = []
        for (u, i, v) in sorted(self.terms, key=lambda k: (k[1], k[0], k[2])):
            c = self.terms[(u, i, v)]
            word = f"eps^{self.degree}_{i}"
            if u.arrows:
                word = f"{quiver.format_path(u)}.{word}"
            if v.arrows:
                word = f"{word}.{quiver.format_path(v)}"
            cs = self.field.format(c)
            if cs == "1":
                bits.append(word)
            elif cs == "-1":
                bits.append(f"-{word}")
            else:
                bits.append(f"{cs}*{word}")
        return " + ".join(bits).replace("+ -", "- ")


class BarWordVector:
    """Element of the reduced bar complex: terms map word tuples to scalars."""

    __slots__ = ("field", "degree", "terms")

    def __init__(self, field, degree, terms=None):
        self.field = field
        self.degree = degree
        self.terms = {}
        if terms:
            for key, coeff in (terms.items() if isinstance(terms, dict) else terms):
                if coeff != field.zero:
                    self.terms[key] = coeff

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        assert self.degree == other.degree
        f = self.field
        out = dict(self.terms)
        for key, c in other.terms.items():
            new = f.add(out.get(key, f.zero), c)
            if new == f.zero:
                out.pop(key, None)
            else:
                out[key] = new
        return BarWordVector(f, self.degree, out)

    def __sub__(self, other):
        return self + other.scale(self.field.neg(self.field.one))

    def scale(self, coeff):
        f = self.field
        if coeff == f.zero:
            return BarWordVector(f, self.degree)
        return BarWordVector(f, self.degree,
                             {k: f.mul(c, coeff) for k, c in self.terms.items()})

    def __eq__(self, other):
        return (isinstance(other, BarWordVector) and self.degree == other.degree
                and self.terms == other.terms)


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

    @property
    def first_failure(self):
        return self.failures[0] if self.failures else None


class KoszulComplex:
    """All resolution data for one presentation, built through degree N."""

    def __init__(self, presentation, N, cobasis=None, rewrite=None):
        self.presentation = presentation
        self.quiver = presentation.quiver
        self.field = presentation.field
        self.N = N
        self.rs = rewrite if rewrite is not None else build_rewrite_system(presentation)
        self.cobasis = (cobasis if cobasis is not None
                        else build_koszul_basis(presentation, self.rs, N))
        if self.cobasis.max_degree < N:
            raise InconsistentBasis("cobasis does not reach the requested degree")
        self.comult = ComultTable(self.quiver, self.cobasis, self.field)
        self._diff_cache = {}
        self._diag_cache = {}

    # -- basic accessors ------------------------------------------------------

    def count(self, n):
        return self.cobasis.count(n)

    def eps(self, n, i):
        q = self.quiver
        o, t = self.cobasis.o(n, i)
        return BimoduleElement(self.field, n,
                               {(q.vertex_path(o), i, q.vertex_path(t)): self.field.one})

    def c(self, n, i, r):
        return self.comult.scalars(n, i, r)

    # -- bimodule arithmetic ---------------------------------------------------

    def sandwich(self, left, x, right):
        """left . x . right with left/right elements of Lambda (PathVectors)."""
        f = self.field
        out = {}
        for (u, i, v), coeff in x.terms.items():
            new_u = self.rs.multiply(left, PathVector.single(f, u))
            new_v = self.rs.multiply(PathVector.single(f, v), right)
            for up, uc in new_u.terms.items():
                for vp, vc in new_v.terms.items():
                    key = (up, i, vp)
                    c = f.mul(coeff, f.mul(uc, vc))
                    tot = f.add(out.get(key, f.zero), c)
                    if tot == f.zero:
                        out.pop(key, None)
                    else:
                        out[key] = tot
        return BimoduleElement(f, x.degree, out)

    def sandwich_words(self, u, x, v):
        f = self.field
        return self.sandwich(PathVector.single(f, u), x, PathVector.single(f, v))

    # -- differential ----------------------------------------------------------

    def _diff_eps(self, n, i):
        got = self._diff_cache.get((n, i))
        if got is not None:
            return got
        f, q = self.field, self.quiver
        sign = f.one if n % 2 == 0 else f.neg(f.one)
        terms = {}
        for (p, j), c in self.c(n, i, 1).items():
            key = (q.arrow_path(p), j, q.vertex_path(self.cobasis.target(n - 1, j)))
            terms[key] = f.add(terms.get(key, f.zero), c)
        for (j, p), c in self.c(n, i, n - 1).items():
            key = (q.vertex_path(self.cobasis.origin(n - 1, j)), j, q.arrow_path(p))
            terms[key] = f.add(terms.get(key, f.zero), f.mul(sign, c))
        out = BimoduleElement(f, n - 1, terms)
        self._diff_cache[(n, i)] = out
        return out

    def differential(self, x):
        """d_n extended bimodule-linearly; degree 0 input is an error."""
        if x.degree == 0:
            raise DegreeUnderflow("use augment on degree-0 elements")
        out = BimoduleElement(self.field, x.degree - 1)
        f = self.field
        for (u, i, v), coeff in x.terms.items():
            out = out + self.sandwich_words(u, self._diff_eps(x.degree, i), v).scale(coeff)
        return out

    def augment(self, x):
        """d_0: K_0 -> Lambda, the multiplication map u . e_i . v -> uv."""
        if x.degree != 0:
            raise DegreeUnderflow("augment only applies in degree 0")
        f = self.field
        acc = PathVector.zero(f)
        for (u, i, v), coeff in x.terms.items():
            acc = acc + self.rs.multiply(PathVector.single(f, u),
                                         PathVector.single(f, v)).scale(coeff)
        return acc

    def angle_component(self, n, r, j):
        """The summand of d_n(eps^n_r) that lands on generator j below."""
        f, q = self.field, self.quiver
        sign = f.one if n % 2 == 0 else f.neg(f.one)
        terms = {}
        for (p, jj), c in self.c(n, r, 1).items():
            if jj == j:
                key = (q.arrow_path(p), j, q.vertex_path(self.cobasis.target(n - 1, j)))
                terms[key] = f.add(terms.get(key, f.zero), c)
        for (jj, p), c in self.c(n, r, n - 1).items():
            if jj == j:
                key = (q.vertex_path(self.cobasis.origin(n - 1, j)), j, q.arrow_path(p))
                terms[key] = f.add(terms.get(key, f.zero), f.mul(sign, c))
        return BimoduleElement(f, n - 1, terms)

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

    def iota(self, n, r):
        """iota(eps^n_r) = 1 ox (letterwise expansion of f^n_r) ox 1."""
        f, q = self.field, self.quiver
        terms = {}
        for path, coeff in self.cobasis.f(n, r).terms.items():
            word = ((q.vertex_path(path.o),)
                    + tuple(q.arrow_path(a) for a in path.arrows)
                    + (q.vertex_path(q.path_target(path)),))
            terms[word] = coeff
        return BarWordVector(f, n, terms)

    def iota_bimodule(self, x):
        """iota extended to K: u . eps^n_i . v -> u ox f-letters ox v."""
        f, q = self.field, self.quiver
        out = {}
        for (u, i, v), coeff in x.terms.items():
            for path, c in self.cobasis.f(x.degree, i).terms.items():
                word = (u,) + tuple(q.arrow_path(a) for a in path.arrows) + (v,)
                tot = f.add(out.get(word, f.zero), f.mul(coeff, c))
                if tot == f.zero:
                    out.pop(word, None)
                else:
                    out[word] = tot
        return BarWordVector(f, x.degree, out)

    def bar_delta(self, bar):
        """Bar differential: alternating sum of adjacent multiplications."""
        f = self.field
        out = {}
        for word, coeff in bar.terms.items():
            for k in range(len(word) - 1):
                sign = f.one if k % 2 == 0 else f.neg(f.one)
                prod = self.rs.multiply(PathVector.single(f, word[k]),
                                        PathVector.single(f, word[k + 1]))
                for path, pc in prod.terms.items():
                    merged = word[:k] + (path,) + word[k + 2:]
                    c = f.mul(coeff, f.mul(sign, pc))
                    tot = f.add(out.get(merged, f.zero), c)
                    if tot == f.zero:
                        out.pop(merged, None)
                    else:
                        out[merged] = tot
        return BarWordVector(f, bar.degree - 1, out)

    # -- tensor-square bookkeeping (Delta identities) --------------------------------

    def _t2_add(self, acc, key, coeff):
        f = self.field
        tot = f.add(acc.get(key, f.zero), coeff)
        if tot == f.zero:
            acc.pop(key, None)
        else:
            acc[key] = tot

    def diag_t2(self, n, r):
        """Delta(eps^n_r) as {(dl, u, p, w, q, v): coeff} over K ox_Lambda K."""
        q = self.quiver
        acc = {}
        for term in self.diagonal(n, r):
            dl = term.left_degree
            u = q.vertex_path(self.cobasis.origin(dl, term.left_index))
            mid = q.vertex_path(self.cobasis.target(dl, term.left_index))
            v = q.vertex_path(self.cobasis.target(n - dl, term.right_index))
            self._t2_add(acc, (dl, u, term.left_index, mid, term.right_index, v),
                         term.coeff)
        return acc

    def verify_resolution(self, N=None):
        """Check every structural identity through degree N, exactly."""
        N = self.N if N is None else N
        checked, failures = [], []
        self._check_d_squared(N, checked, failures)
        self._check_dg_compat(N, checked, failures)
        self._check_coassoc(N, checked, failures)
        self._check_counit(N, checked, failures)
        self._check_iota(N, checked, failures)
        return ResolutionReport(not failures, checked, failures)

    def _check_d_squared(self, N, checked, failures):
        for i in range(self.count(1)):
            val = self.augment(self._diff_eps(1, i))
            if not val.is_zero():
                failures.append(("d*d=0", 1, i, val.format(self.quiver)))
        for n in range(2, N + 1):
            for i in range(self.count(n)):
                val = self.differential(self._diff_eps(n, i))
                if not val.is_zero():
                    failures.append(("d*d=0", n, i, val.format(self.quiver)))
        checked.append("d*d=0")

    def _check_dg_compat(self, N, checked, failures):
        f = self.field
        for n in range(1, N + 1):
            for r in range(self.count(n)):
                lhs = self._t2_d_of_diag(n, r)
                rhs = self._t2_of_bimodule_diag(self._diff_eps(n, r))
                if lhs != rhs:
                    failures.append(("(d ox 1 + 1 ox d)Delta = Delta d", n, r,
                                     _t2_diff_witness(lhs, rhs)))
        checked.append("(d ox 1 + 1 ox d)Delta = Delta d")

    def _t2_d_of_diag(self, n, r):
        f = self.field
        out = {}
        for (dl, u, p, w, q, v), coeff in self.diag_t2(n, r).items():
            if dl >= 1:
                for (u2, p2, v2), c2 in self._diff_eps(dl, p).terms.items():
                    uu = self.rs.multiply(PathVector.single(f, u), PathVector.single(f, u2))
                    ww = self.rs.multiply(PathVector.single(f, v2), PathVector.single(f, w))
                    for up, uc in uu.terms.items():
                        for wp, wc in ww.terms.items():
                            self._t2_add(out, (dl - 1, up, p2, wp, q, v),
                                         f.mul(coeff, f.mul(c2, f.mul(uc, wc))))
            dr = n - dl
            if dr >= 1:
                sign = f.one if dl % 2 == 0 else f.neg(f.one)
                for (u2, q2, v2), c2 in self._diff_eps(dr, q).terms.items():
                    ww = self.rs.multiply(PathVector.single(f, w), PathVector.single(f, u2))
                    vv = self.rs.multiply(PathVector.single(f, v2), PathVector.single(f, v))
                    for wp, wc in ww.terms.items():
                        for vp, vc in vv.terms.items():
                            self._t2_add(out, (dl, u, p, wp, q2, vp),
                                         f.mul(f.mul(coeff, sign),
                                               f.mul(c2, f.mul(wc, vc))))
        return out

    def _t2_of_bimodule_diag(self, x):
        """Delta applied to a bimodule element of K_{n}, term by term."""
        f = self.field
        out = {}
        for (u, i, v), coeff in x.terms.items():
            for (dl, u0, p, w, q, v0), c in self.diag_t2(x.degree, i).items():
                uu = self.rs.multiply(PathVector.single(f, u), PathVector.single(f, u0))
                vv = self.rs.multiply(PathVector.single(f, v0), PathVector.single(f, v))
                for up, uc in uu.terms.items():
                    for vp, vc in vv.terms.items():
                        self._t2_add(out, (dl, up, p, w, q, vp),
                                     f.mul(coeff, f.mul(c, f.mul(uc, vc))))
        return out

    def _check_coassoc(self, N, checked, failures):
        f = self.field
        for n in range(0, N + 1):
            for r in range(self.count(n)):
                lhs, rhs = {}, {}
                for (dl, u, p, w, q, v), coeff in self.diag_t2(n, r).items():
                    # (Delta ox 1): expand the left factor
                    for t in self.diagonal(dl, p):
                        key = (t.left_degree, dl - t.left_degree, u,
                               t.left_index, self._vpath_mid(t), t.right_index,
                               w, q, v)
                        self._t2_add(lhs, key, f.mul(coeff, t.coeff))
                    # (1 ox Delta): expand the right factor
                    for t in self.diagonal(n - dl, q):
                        key = (dl, t.left_degree, u, p, w, t.left_index,
                               self._vpath_mid(t), t.right_index, v)
                        self._t2_add(rhs, key, f.mul(coeff, t.coeff))
                if lhs != rhs:
                    failures.append(("(Delta ox 1)Delta = (1 ox Delta)Delta", n, r,
                                     _t2_diff_witness(lhs, rhs)))
        checked.append("(Delta ox 1)Delta = (1 ox Delta)Delta")

    def _vpath_mid(self, t):
        return self.quiver.vertex_path(self.cobasis.target(t.left_degree, t.left_index))

    def _check_counit(self, N, checked, failures):
        f = self.field
        for n in range(0, N + 1):
            for r in range(self.count(n)):
                left = BimoduleElement(f, n)
                right = BimoduleElement(f, n)
                for (dl, u, p, w, q, v), coeff in self.diag_t2(n, r).items():
                    if dl == 0:
                        word = self.rs.multiply(PathVector.single(f, u),
                                                PathVector.single(f, w))
                        left = left + self.sandwich(
                            word, self.eps(n, q), PathVector.single(f, v)).scale(coeff)
                    if n - dl == 0:
                        word = self.rs.multiply(PathVector.single(f, w),
                                                PathVector.single(f, v))
                        right = right + self.sandwich(
                            PathVector.single(f, u), self.eps(n, p), word).scale(coeff)
                target = self.eps(n, r)
                if left != target:
                    failures.append(("(mu ox 1)Delta = id", n, r, left.format(self.quiver)))
                if right != target:
                    failures.append(("(1 ox mu)Delta = id", n, r, right.format(self.quiver)))
        checked.append("(mu ox 1)Delta = id = (1 ox mu)Delta")

    def _check_iota(self, N, checked, failures):
        for n in range(1, N + 1):
            for r in range(self.count(n)):
                lhs = self.bar_delta(self.iota(n, r))
                rhs = self.iota_bimodule(self._diff_eps(n, r))
                if lhs != rhs:
                    failures.append(("delta iota = iota d", n, r,
                                     _bar_diff_witness(lhs, rhs)))
        checked.append("delta iota = iota d")


def _t2_diff_witness(lhs, rhs):
    keys = set(lhs) | set(rhs)
    for key in sorted(keys, key=repr):
        if lhs.get(key) != rhs.get(key):
            return f"term {key}: {lhs.get(key)} vs {rhs.get(key)}"
    return "?"


def _bar_diff_witness(lhs, rhs):
    keys = set(lhs.terms) | set(rhs.terms)
    for key in sorted(keys, key=repr):
        if lhs.terms.get(key) != rhs.terms.get(key):
            return f"word {key}: {lhs.terms.get(key)} vs {rhs.terms.get(key)}"
    return "?"
