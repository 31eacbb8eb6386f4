"""Hochschild cochains on K: coboundary, cocycle spaces, cup product.

A degree-n cochain is a GradedVector whose terms map (slot i, normal word w)
to the coefficient of w in its value on the free generator eps^n_i; each
value lies in Lambda and is pinned between the generator's vertex
idempotents.  Values are checked only where they enter: Cochain.from_values
normalises input values and checks their pinning, while Cochain(kx, n,
terms) trusts terms the package has computed, as BimoduleElement does.
The coboundary is precomposition with the differential.  All linear
questions are sliced by internal degree (path length of the values): the
coboundary carries the length-l slice of degree n into the length-(l+1)
slice of degree n+1, so infinite-dimensional algebras stay finite work per
slice, and the (slot, word) keys are the coordinates of each slice.
Cochain equality is term equality; class equality is the separate
same_class predicate.
"""

from typing import NamedTuple

from .errors import CochainError, DimensionMismatch, UnboundedComputation
from .linalg import (GradedVector, Matrix, SparseVector, echelon_basis, nullspace_basis,
                     solve_affine_system)
from .quiver import PathVector


class Cochain(GradedVector):
    """Map K_n -> Lambda: terms map (slot i, word w) to the coefficient of
    w in the value on eps^n_i."""

    __slots__ = ("kx", "_values")

    def __init__(self, kx, degree, terms=None):
        GradedVector.__init__(self, kx.field, degree, terms)
        self.kx = kx
        self._values = None

    @classmethod
    def from_values(cls, kx, degree, values):
        """The cochain with the given values on eps^n_0 .. eps^n_{t_n}, each
        put in normal form and checked to lie between its generator's vertices."""
        if len(values) != kx.count(degree):
            raise CochainError(f"expected {kx.count(degree)} values in degree {degree}")
        target = kx.quiver.path_target
        terms = {}
        for i, val in enumerate(values):
            val = kx.rs.normal_form(val)
            o, t = kx.cobasis.o(degree, i)
            for path, c in val.terms.items():
                if path.o != o or target(path) != t:
                    raise CochainError(
                        f"value {val.format(kx.quiver)} at slot {i} is not pinned "
                        f"between the generator's vertices")
                terms[(i, path)] = c
        return cls(kx, degree, terms)

    def _like(self, terms):
        return type(self)(self.kx, self.degree, terms)

    def _combine(self, other, sign):
        if self.degree != other.degree or self.kx is not getattr(other, "kx", None):
            raise DimensionMismatch(
                "cannot combine cochains of different degrees or on different complexes")
        return GradedVector._combine(self, other, sign)

    @property
    def values(self):
        """The value on each generator, a tuple of PathVectors built once."""
        if self._values is None:
            values = [{} for _ in range(self.kx.count(self.degree))]
            for (i, w), c in self.terms.items():
                values[i][w] = c
            self._values = tuple(PathVector(self.field, v) for v in values)
        return self._values

    def internal_degrees(self):
        return {len(w.arrows) for _, w in self.terms}

    def is_homogeneous(self):
        return len(self.internal_degrees()) <= 1

    def internal_degree(self):
        degs = self.internal_degrees()
        if len(degs) > 1:
            raise CochainError("cochain is not homogeneous")
        return degs.pop() if degs else None

    def graded_piece(self, ell):
        return self._like([(key, c) for key, c in self.terms.items()
                           if len(key[1].arrows) == ell])

    def evaluate_into(self, acc, r, x, scale):
        """Add scale . (value on x) into the term dict acc under the keys
        (r, word); acc may be left holding zeros and, over F_p, unreduced
        values."""
        word_product = self.kx.rs.word_product
        values = self.values
        for (u, i, v), coeff in x.terms.items():
            coeff *= scale
            for w, cw in values[i].terms.items():
                cw = coeff * cw
                for uw, cu in word_product(u, w).terms.items():
                    cu = cw * cu
                    for p, cp in word_product(uw, v).terms.items():
                        key = (r, p)
                        acc[key] = acc.get(key, 0) + cu * cp

    def format(self):
        return "(" + ", ".join(v.format(self.kx.quiver) for v in self.values) + ")"


class CochainSpace(NamedTuple):
    degree: int
    internal_degrees: tuple
    cocycles: list
    coboundaries: list

    @property
    def hh_dim(self):
        return len(self.cocycles) - len(self.coboundaries)


def coboundary(eta):
    """d* eta = eta o d, one homological degree up."""
    kx = eta.kx
    n = eta.degree
    acc = {}
    for r in range(kx.count(n + 1)):
        eta.evaluate_into(acc, r, kx._diff_eps(n + 1, r), 1)
    return Cochain(kx, n + 1, acc)


def _cochain_coords(kx, n, ell):
    """Coordinate list [(slot, word)] for internal-degree-ell n-cochains."""
    coords = []
    for i in range(kx.count(n)):
        o, t = kx.cobasis.o(n, i)
        for w in kx.rs.basis_words(ell, o, t):
            coords.append((i, w))
    return coords


def _coboundary_matrix(kx, n, ell):
    """Matrix of d*: C^{n, ell} -> C^{n+1, ell+1} in canonical coordinates.

    Values of d* eta pick up one arrow, so the preserved grading is value
    length minus homological degree; slicing by value length per fixed n
    keeps every solve finite.
    """
    src = _cochain_coords(kx, n, ell)
    dst = _cochain_coords(kx, n + 1, ell + 1)
    dst_index = {key: k for k, key in enumerate(dst)}
    f = kx.field
    entries = {}
    word_product = kx.rs.word_product
    for col, (i, w) in enumerate(src):
        for r in range(kx.count(n + 1)):
            for (u, j, v), coeff in kx._diff_eps(n + 1, r).terms.items():
                if j != i:
                    continue
                for uw, cu in word_product(u, w).terms.items():
                    cu = coeff * cu
                    for path, c in word_product(uw, v).terms.items():
                        key = (dst_index[(r, path)], col)
                        entries[key] = entries.get(key, 0) + cu * c
    return Matrix(f, len(dst), len(src), entries), src, dst


def _internal_degree_range(kx):
    if not kx.rs.is_finite_dimensional():
        raise UnboundedComputation(
            "infinite-dimensional algebra: pass an internal degree")
    ells = []
    ell = 0
    while kx.rs.basis_words(ell):
        ells.append(ell)
        ell += 1
    return ells


def cocycle_space(kx, n, ell=None):
    """Bases of ker d* and im d* in degree n, per internal degree slice."""
    if n + 1 > kx.N:
        raise CochainError(
            f"cocycles in degree {n} need resolution data through degree {n + 1}; "
            f"rebuild the complex with a larger N")
    ells = [ell] if ell is not None else _internal_degree_range(kx)
    cocycles, coboundaries = [], []
    for e in ells:
        A, src, _ = _coboundary_matrix(kx, n, e)
        for vec in nullspace_basis(A):
            cocycles.append(Cochain(kx, n, zip(src, vec)))
        if n >= 1 and e >= 1:
            B, _, bdst = _coboundary_matrix(kx, n - 1, e - 1)
            images = [{} for _ in range(B.cols)]  # the columns of B, by row
            for (r, col), v in B.entries.items():
                images[col][r] = v
            for row in echelon_basis([SparseVector(kx.field, im) for im in images], None):
                coboundaries.append(
                    Cochain(kx, n, [(bdst[k], c) for k, c in row.terms.items()]))
    return CochainSpace(n, tuple(ells), cocycles, coboundaries)


def is_coboundary(eta):
    """Decide eta = d* xi exactly; returns the witness xi or None."""
    kx = eta.kx
    n = eta.degree
    if eta.is_zero():
        return Cochain.zero(kx, n - 1) if n >= 1 else Cochain.zero(kx, 0)
    if n == 0:
        return None
    witness = Cochain.zero(kx, n - 1)
    for e in sorted(eta.internal_degrees()):
        if e == 0:
            return None  # d* raises value length, so a length-0 piece is never hit
        piece = eta.graded_piece(e).terms
        A, src, dst = _coboundary_matrix(kx, n - 1, e - 1)
        if not piece.keys() <= set(dst):
            raise CochainError("cochain outside the coordinate slice")
        b = [piece.get(key, kx.field.zero) for key in dst]
        sol = solve_affine_system(A, b)
        if sol is None:
            return None
        witness = witness + Cochain(kx, n - 1, zip(src, sol.particular))
    return witness


def same_class(a, b):
    """True when a and b are cohomologous (differ by a coboundary).

    Cochains of different degrees or on different complexes raise
    DimensionMismatch.  Equal cochains are one class without a solve; any
    other pair asks is_coboundary(a - b).
    """
    diff = a - b
    return diff.is_zero() or is_coboundary(diff) is not None


def cup_product(eta, theta):
    """(eta cup theta)(eps^{n+m}_j) = sum c_{pq}(n+m, j, n) lambda_p mu_q."""
    kx = eta.kx
    n, m = eta.degree, theta.degree
    left, right = eta.values, theta.values
    acc = {}
    for j in range(kx.count(n + m)):
        for (p, q), c in kx.c(n + m, j, n).items():
            for w, cw in kx.rs.multiply(left[p], right[q]).terms.items():
                key = (j, w)
                acc[key] = acc.get(key, 0) + cw * c
    return Cochain(kx, n + m, acc)
