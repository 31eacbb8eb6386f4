"""Gerstenhaber brackets three ways, plus the Maurer-Cartan check.

* via homotopy liftings on K:   [eta, theta] = eta psi_theta
  - (-1)^{(m-1)(n-1)} theta psi_eta,
* via derivation operators for a degree-1 gamma: [gamma, chi] =
  gamma o chi - chi o psi_gamma, with gamma extended to Lambda as a
  derivation and psi_gamma its lifting, which is its derivation operator,
* via the circle-product formula on the reduced bar complex, brute forced
  over all composable tuples of basis words (finite-dimensional algebras
  only); restriction along the embedding iota makes the two sides
  comparable up to coboundary.  A bar n-cochain is a GradedVector of
  degree n keyed by (tuple of basis words, value word).

The bar route never constructs a chain map from the bar complex down to K;
comparisons happen in cohomology classes on the K side; when the degrees
agree, both sides share one basis, its restrictions and their liftings.

Both sides of a bracket or Maurer-Cartan cochain go into one term dict:
Cochain.evaluate_into(acc, r, x, scale) adds a value on slot r under the
(r, word) keys, and _circle_into adds a circle product.  canon drops the
first side's zeros before the second goes in, so each slot's terms keep
the order of a difference.
"""

from typing import NamedTuple

from .cohomology import Cochain, is_coboundary, same_class
from .errors import CharacteristicTwo, CochainError, InfiniteDimensional
from .lifting import derivation_on_element, solve_lifting
from .linalg import GradedVector, Matrix, nullspace_basis


def bracket_via_lifting(kx, eta, theta, psi_eta, psi_theta):
    """[eta, theta] as a cochain of degree n + m - 1."""
    n, m = eta.degree, theta.degree
    deg = n + m - 1
    f = kx.field
    minus = 1 if (m - 1) * (n - 1) % 2 else -1  # -(-1)^{(m-1)(n-1)}
    acc = {}
    for r in range(kx.count(deg)):
        eta.evaluate_into(acc, r, psi_theta.image(deg, r), 1)
    acc = f.canon(acc.items())
    for r in range(kx.count(deg)):
        theta.evaluate_into(acc, r, psi_eta.image(deg, r), minus)
    return Cochain(kx, deg, acc)


def bracket_via_derivation(kx, gamma, chi, deriv):
    """[gamma, chi] = gamma o chi - chi o psi_gamma for a degree-1 gamma, where
    deriv is psi_gamma through degree chi.degree (derivation_lift)."""
    n = chi.degree
    acc = {}
    for r, value in enumerate(chi.values):
        for w, c in derivation_on_element(kx, gamma, value).terms.items():
            acc[(r, w)] = c
    for r in range(kx.count(n)):
        chi.evaluate_into(acc, r, deriv.image(n, r), -1)
    return Cochain(kx, n, acc)


class MCReport(NamedTuple):
    exact: bool
    class_level: bool
    residual: object  # degree-3 Cochain


def maurer_cartan_check(kx, eta, psi_eta):
    """Check dbar(eta) + (1/2)[eta, eta] = 0 for a 2-cochain eta.

    With dbar(eta) = -eta d_3 and (1/2)[eta, eta] = eta psi_eta, the residual
    is the degree-3 cochain eta psi_eta - eta d_3; `exact` asks it to vanish
    on the nose, `class_level` only up to coboundary.
    """
    f = kx.field
    if f.characteristic == 2:
        raise CharacteristicTwo("Maurer-Cartan needs characteristic != 2")
    if eta.degree != 2:
        raise CochainError("Maurer-Cartan applies to 2-cochains")
    acc = {}
    for r in range(kx.count(3)):
        eta.evaluate_into(acc, r, kx._diff_eps(3, r), -1)
    acc = f.canon(acc.items())
    for r in range(kx.count(3)):
        eta.evaluate_into(acc, r, psi_eta.image(3, r), 1)
    residual = Cochain(kx, 3, acc)
    return MCReport(residual.is_zero(), is_coboundary(residual) is not None, residual)


# -- the reduced-bar-side oracle ----------------------------------------------


def bar_tuples(kx, n):
    """All composable n-tuples of basis words (idempotents included).

    Memoised per complex and returned as a tuple, so no caller can change
    what the next one reads.
    """
    if not kx.rs.is_finite_dimensional():
        raise InfiniteDimensional("bar enumeration needs a finite-dimensional algebra")
    got = kx._bar_tuples.get(n)
    if got is None:
        if n == 0:
            got = ((),)
        elif n == 1:
            words, length = [], 0
            while level := kx.rs.basis_words(length):
                words.extend(level)
                length += 1
            got = tuple((w,) for w in words)
        else:
            target = kx.quiver.path_target
            words = bar_tuples(kx, 1)
            got = tuple(tup + w for tup in bar_tuples(kx, n - 1)
                        for w in words if target(tup[-1]) == w[0].o)
        kx._bar_tuples[n] = got
    return got


def bar_cocycle_basis(kx, n):
    """A basis of bar n-cocycles, enumerated per internal-degree shift.

    Columns are the coordinates (tup, w) of n-cochains with
    |w| = sum |tup| + shift, in tuple-then-word order.  One sweep over the
    (n+1)-tuples T fills every delta* entry from the faces of T: the head
    T[1:] (value T[0].w), the merges T[:i] + (p,) + T[i+2:] for each word p
    of T[i].T[i+1] (value w, sign (-1)^{i+1}) and the tail T[:-1] (value
    w.T[-1], sign (-1)^{n+1}).  The grading puts each entry in the block of
    its column's shift; each block's kernel is one nullspace_basis.  A row,
    a coordinate (T, path) of (n+1)-cochains, is numbered in its block when
    the first entry lands on it: the kernel depends on neither the order of
    the rows nor the zero rows left out.
    """
    if n < 1:
        raise CochainError("bar cocycles start in degree 1")
    f = kx.field
    rs = kx.rs
    target = kx.quiver.path_target
    ends = {}  # (origin, target) -> basis words, by length
    for (w,) in bar_tuples(kx, 1):
        ends.setdefault((w.o, target(w)), []).append(w)

    src = {}  # shift -> [(tup, w)], the columns
    by_tup = {}  # tup -> [(w, shift, column)]
    for tup in bar_tuples(kx, n):
        total = sum(len(w.arrows) for w in tup)
        for w in ends.get((tup[0].o, target(tup[-1])), ()):
            shift = len(w.arrows) - total
            block = src.setdefault(shift, [])
            by_tup.setdefault(tup, []).append((w, shift, len(block)))
            block.append((tup, w))

    entries = {shift: {} for shift in src}
    rows = {shift: {} for shift in src}  # shift -> {(T, path): row}, on first hit
    tail_sign = -1 if (n + 1) % 2 else 1
    for T in bar_tuples(kx, n + 1):
        hits = [(col, path, c) for col in by_tup.get(T[1:], ())
                for path, c in rs.word_product(T[0], col[0]).terms.items()]
        for i in range(n):
            sign = 1 if i % 2 else -1
            for p, c in rs.word_product(T[i], T[i + 1]).terms.items():
                for col in by_tup.get(T[:i] + (p,) + T[i + 2:], ()):
                    hits.append((col, col[0], sign * c))
        for col in by_tup.get(T[:-1], ()):
            for path, c in rs.word_product(col[0], T[-1]).terms.items():
                hits.append((col, path, tail_sign * c))
        for (_, shift, j), path, c in hits:
            block, numbered = entries[shift], rows[shift]
            key = (numbered.setdefault((T, path), len(numbered)), j)
            block[key] = block.get(key, 0) + c

    basis = []
    for shift in sorted(src):
        cols = src[shift]
        for vec in nullspace_basis(Matrix(f, len(rows[shift]), len(cols), entries[shift])):
            basis.append(GradedVector(f, n, zip(cols, vec)))
    return basis


def _circle_into(out, kx, F, G, scale):
    """Add scale . (F o G) into the term dict out, where
    F o G = sum_j (-1)^{(n-1)(j-1)} F o_j G on the reduced bar complex.

    Read off the supports: F o_j G has a term on T only if G has a term
    (T[j-1:j-1+n], p) and F one on T[:j-1] + (p,) + T[j-1+n:].
    """
    target = kx.quiver.path_target
    m, n = F.degree, G.degree
    through = {}  # word p -> [(tup, coefficient of (tup, p) in G)]
    for (tup, p), c in G.terms.items():
        through.setdefault(p, []).append((tup, c))
    for (key, w), v in F.terms.items():
        v *= scale
        for j in range(1, m + 1):
            signed = -v if ((n - 1) * (j - 1)) % 2 else v
            for inner, c in through.get(key[j - 1], ()):
                tup = key[:j - 1] + inner + key[j:]
                if any(target(a) != b.o for a, b in zip(tup, tup[1:])):
                    continue
                out[(tup, w)] = out.get((tup, w), 0) + signed * c


def bar_circle_bracket(kx, F, G):
    """[F, G] = F o G - (-1)^{(m-1)(n-1)} G o F."""
    m, n = F.degree, G.degree
    out = {}
    _circle_into(out, kx, F, G, 1)
    out = kx.field.canon(out.items())
    _circle_into(out, kx, G, F, 1 if (m - 1) * (n - 1) % 2 else -1)
    return GradedVector(kx.field, m + n - 1, out)


def restrict_along_iota(kx, F):
    """F o iota as a cochain on K."""
    n = F.degree
    words = kx._iota_index.get(n)
    if words is None:  # a word of f^n_i spelled letter by letter -> [(i, coefficient)]
        words = {}
        for i in range(kx.count(n)):
            for letters, coeff in kx._letters(n, i):
                words.setdefault(letters, []).append((i, coeff))
        kx._iota_index[n] = words
    acc = {}
    for (tup, p), c in F.terms.items():
        for i, coeff in words.get(tup, ()):
            key = (i, p)
            acc[key] = acc.get(key, 0) + c * coeff
    return Cochain(kx, n, acc)


class OraclePairResult(NamedTuple):
    left_index: int
    right_index: int
    agree: bool


class OracleReport(NamedTuple):
    degrees: tuple
    pairs: list

    @property
    def ok(self):
        return all(p.agree for p in self.pairs)


def oracle_compare(kx, n, m):
    """Compare bar-side and lifting-side brackets pairwise, up to coboundary.

    Enumerates bases of bar n- and m-cocycles, restricts everything along
    iota, solves liftings on the K side and checks that each pair's brackets
    land in the same class.  When n == m both sides share one basis, one
    restriction and one lifting per cocycle, and each unordered pair is
    evaluated once: [G, F] = -(-1)^{(n-1)(n-1)} [F, G] holds on the nose on
    both sides, and a common sign does not change same_class.
    """
    deg = n + m - 1

    def side(degree):  # [(bar cocycle, its restriction, the restriction's lifting)]
        out = []
        for F in bar_cocycle_basis(kx, degree):
            eta = restrict_along_iota(kx, F)
            out.append((F, eta, solve_lifting(kx, eta, deg)))
        return out

    left = side(n)
    right = left if m == n else side(m)
    pairs, agree = [], {}
    for i, (F, eta, psi_eta) in enumerate(left):
        for j, (G, theta, psi_theta) in enumerate(right):
            if m == n and j < i:
                agree[(i, j)] = agree[(j, i)]
            else:
                bar_side = restrict_along_iota(kx, bar_circle_bracket(kx, F, G))
                lift_side = bracket_via_lifting(kx, eta, theta, psi_eta, psi_theta)
                agree[(i, j)] = same_class(bar_side, lift_side)
            pairs.append(OraclePairResult(i, j, agree[(i, j)]))
    return OracleReport((n, m), pairs)
