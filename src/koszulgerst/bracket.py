"""Gerstenhaber brackets three ways, plus the Maurer-Cartan check.

* via homotopy liftings on K:   [eta, theta] = eta psi_theta
  - (-1)^{(m-1)(n-1)} theta psi_eta,
* via derivation operators for degree-1 cocycles,
* via the circle-product formula on the reduced bar complex, brute forced
  over all composable tuples of basis words (finite-dimensional algebras
  only); restriction along the embedding iota makes the two sides
  comparable up to coboundary.

The bar route never constructs a chain map from the bar complex down to K;
comparisons happen in cohomology classes on the K side.
"""

from typing import NamedTuple

from .cohomology import Cochain, is_coboundary, same_class
from .errors import CharacteristicTwo, InfiniteDimensional
from .lifting import derivation_on_element, solve_lifting
from .linalg import Matrix, nullspace_basis
from .quiver import PathVector


def bracket_via_lifting(kx, eta, theta, psi_eta, psi_theta):
    """[eta, theta] as a cochain of degree n + m - 1."""
    n, m = eta.degree, theta.degree
    deg = n + m - 1
    f = kx.field
    sign = f.one if ((m - 1) * (n - 1)) % 2 == 0 else f.neg(f.one)
    values = []
    for r in range(kx.count(deg)):
        first = eta.evaluate(psi_theta.image(deg, r))
        second = theta.evaluate(psi_eta.image(deg, r))
        values.append(first - second.scale(sign))
    return Cochain(kx, deg, values)


def bracket_via_derivation(kx, gamma, chi, deriv):
    """[gamma, chi] = gamma o chi - chi o gtilde for a degree-1 gamma."""
    n = chi.degree
    values = []
    for r in range(kx.count(n)):
        first = derivation_on_element(kx, gamma, chi.values[r])
        second = chi.evaluate(deriv.image(n, r))
        values.append(first - second)
    return Cochain(kx, n, values)


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
    if kx.field.characteristic == 2:
        raise CharacteristicTwo("Maurer-Cartan needs characteristic != 2")
    if eta.degree != 2:
        raise ValueError("Maurer-Cartan applies to 2-cochains")
    values = []
    for r in range(kx.count(3)):
        dbar = -eta.evaluate(kx._diff_eps(3, r))
        half_bracket = eta.evaluate(psi_eta.image(3, r))
        values.append(dbar + half_bracket)
    residual = Cochain(kx, 3, values)
    return MCReport(residual.is_zero(), is_coboundary(residual) is not None, residual)


# -- the reduced-bar-side oracle ----------------------------------------------


class BarCochain:
    """Degree-n bar cochain: values on composable n-tuples of basis words."""

    __slots__ = ("kx", "degree", "values")

    def __init__(self, kx, degree, values):
        self.kx = kx
        self.degree = degree
        self.values = {key: v for key, v in values.items() if not v.is_zero()}

    def value(self, key):
        return self.values.get(key)

    def evaluate_tuple(self, words):
        """Value on a tuple of Lambda elements (PathVectors), multilinearly."""
        f = self.kx.field
        acc = PathVector.zero(f)
        stack = [((), f.one)]
        for vec in words:
            stack = [(prefix + (path,), f.mul(coeff, c))
                     for prefix, coeff in stack
                     for path, c in vec.terms.items()]
        for key, coeff in stack:
            val = self.values.get(key)
            if val is not None:
                acc = acc + val.scale(coeff)
        return acc


def bar_tuples(kx, n):
    """All composable n-tuples of basis words (idempotents included)."""
    if not kx.rs.is_finite_dimensional():
        raise InfiniteDimensional("bar enumeration needs a finite-dimensional algebra")
    words = []
    length = 0
    while True:
        level = kx.rs.basis_words(length)
        if not level:
            break
        words.extend(level)
        length += 1
    out = [()]
    q = kx.quiver
    for _ in range(n):
        nxt = []
        for tup in out:
            for w in words:
                if tup and q.path_target(tup[-1]) != w.o:
                    continue
                nxt.append(tup + (w,))
        out = nxt
    return out


def _bar_coords(kx, n, shift):
    """[(tuple, value word)] with |value| = sum |w_i| + shift."""
    coords = []
    q = kx.quiver
    for tup in bar_tuples(kx, n):
        total = sum(len(w.arrows) for w in tup)
        ell = total + shift
        if ell < 0:
            continue
        o = tup[0].o
        t = q.path_target(tup[-1])
        for w in kx.rs.basis_words(ell, o=o, t=t):
            coords.append((tup, w))
    return coords


def bar_coboundary(F):
    """delta* F: the Hochschild differential on the reduced bar complex."""
    kx = F.kx
    f = kx.field
    n = F.degree
    out = {}
    for tup in bar_tuples(kx, n + 1):
        acc = PathVector.zero(f)
        head = F.value(tup[1:])
        if head is not None:
            acc = acc + kx.rs.multiply(PathVector.single(f, tup[0]), head)
        for i in range(n):
            merged = kx.rs.multiply(PathVector.single(f, tup[i]),
                                    PathVector.single(f, tup[i + 1]))
            sign = f.neg(f.one) if (i + 1) % 2 else f.one
            inner = F.evaluate_tuple(
                tuple(PathVector.single(f, w) for w in tup[:i]) + (merged,)
                + tuple(PathVector.single(f, w) for w in tup[i + 2:]))
            acc = acc + inner.scale(sign)
        tail = F.value(tup[:-1])
        if tail is not None:
            sign = f.neg(f.one) if (n + 1) % 2 else f.one
            acc = acc + kx.rs.multiply(tail, PathVector.single(f, tup[-1])).scale(sign)
        if not acc.is_zero():
            out[tup] = acc
    return BarCochain(kx, n + 1, out)


def bar_cocycle_basis(kx, n):
    """A basis of bar n-cocycles, enumerated per internal-degree shift."""
    f = kx.field
    max_len = 0
    while kx.rs.basis_words(max_len + 1):
        max_len += 1
    basis = []
    for shift in range(-n * max_len, max_len + 1):
        src = _bar_coords(kx, n, shift)
        if not src:
            continue
        dst = _bar_coords(kx, n + 1, shift)
        dst_index = {key: k for k, key in enumerate(dst)}
        entries = {}
        for col, (tup, w) in enumerate(src):
            F = BarCochain(kx, n, {tup: PathVector.single(f, w)})
            dF = bar_coboundary(F)
            for key, vec in dF.values.items():
                for path, c in vec.terms.items():
                    entry = (dst_index[(key, path)], col)
                    entries[entry] = f.add(entries.get(entry, f.zero), c)
        A = Matrix(f, len(dst), len(src), entries)
        for vec in nullspace_basis(A):
            values = {}
            for (tup, w), c in zip(src, vec):
                if c != f.zero:
                    cur = values.get(tup, PathVector.zero(f))
                    values[tup] = cur + PathVector.single(f, w).scale(c)
            basis.append(BarCochain(kx, n, values))
    return basis


def bar_circle_product(F, G):
    """F o G = sum_j (-1)^{(n-1)(j-1)} F o_j G on the reduced bar complex."""
    kx = F.kx
    f = kx.field
    m, n = F.degree, G.degree
    deg = m + n - 1
    out = {}
    for tup in bar_tuples(kx, deg):
        acc = PathVector.zero(f)
        for j in range(1, m + 1):
            inner = G.value(tup[j - 1:j - 1 + n])
            if inner is None:
                continue
            sign = f.one if ((n - 1) * (j - 1)) % 2 == 0 else f.neg(f.one)
            args = (tuple(PathVector.single(f, w) for w in tup[:j - 1])
                    + (inner,)
                    + tuple(PathVector.single(f, w) for w in tup[j - 1 + n:]))
            acc = acc + F.evaluate_tuple(args).scale(sign)
        if not acc.is_zero():
            out[tup] = acc
    return BarCochain(kx, deg, out)


def bar_circle_bracket(F, G):
    """[F, G] = F o G - (-1)^{(m-1)(n-1)} G o F."""
    kx = F.kx
    f = kx.field
    m, n = F.degree, G.degree
    sign = f.one if ((m - 1) * (n - 1)) % 2 == 0 else f.neg(f.one)
    fg = bar_circle_product(F, G)
    gf = bar_circle_product(G, F)
    out = dict(fg.values)
    for key, vec in gf.values.items():
        out[key] = out.get(key, PathVector.zero(f)) - vec.scale(sign)
    return BarCochain(kx, m + n - 1, out)


def restrict_along_iota(kx, F):
    """F o iota as a cochain on K."""
    f = kx.field
    n = F.degree
    q = kx.quiver
    values = []
    for i in range(kx.count(n)):
        acc = PathVector.zero(f)
        for path, coeff in kx.cobasis.f(n, i).terms.items():
            key = tuple(q.arrow_path(a) for a in path.arrows)
            val = F.value(key)
            if val is not None:
                acc = acc + val.scale(coeff)
        values.append(acc)
    return Cochain(kx, n, values)


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


def oracle_compare(kx, n, m, max_pairs=None):
    """Compare bar-side and lifting-side brackets pairwise, up to coboundary.

    Enumerates bases of bar n- and m-cocycles, restricts everything along
    iota, solves liftings on the K side and checks that each pair's brackets
    land in the same class.
    """
    left = bar_cocycle_basis(kx, n)
    right = bar_cocycle_basis(kx, m)
    deg = n + m - 1
    left_data = [(F, restrict_along_iota(kx, F)) for F in left]
    right_data = [(G, restrict_along_iota(kx, G)) for G in right]
    left_lifts = [solve_lifting(kx, eta, deg) for _, eta in left_data]
    right_lifts = [solve_lifting(kx, theta, deg) for _, theta in right_data]
    pairs = []
    count = 0
    for i, (F, eta) in enumerate(left_data):
        for j, (G, theta) in enumerate(right_data):
            if max_pairs is not None and count >= max_pairs:
                return OracleReport((n, m), pairs)
            bar_side = restrict_along_iota(kx, bar_circle_bracket(F, G))
            lift_side = bracket_via_lifting(kx, eta, theta,
                                            left_lifts[i], right_lifts[j])
            pairs.append(OraclePairResult(i, j, same_class(bar_side, lift_side)))
            count += 1
    return OracleReport((n, m), pairs)
