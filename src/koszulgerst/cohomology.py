"""Hochschild cochains on K: coboundary, cocycle spaces, cup product.

A degree-n cochain is the list of its values on the free generators; values
live in Lambda (normal form) and are pinned between the generator's vertex
idempotents.  The coboundary is precomposition with the differential.  All
linear questions are sliced by internal degree (path length of the values):
the coboundary carries the length-l slice of degree n into the length-(l+1)
slice of degree n+1, so infinite-dimensional algebras stay finite work per
slice.  Cochain equality is value-list equality; class equality is the
separate same_class predicate, which needs no solve for equal value lists.
"""

from typing import NamedTuple

from .errors import CochainError, DimensionMismatch, UnboundedComputation
from .linalg import Matrix, SparseVector, echelon_basis, nullspace_basis, solve_affine_system
from .quiver import PathVector


class Cochain:
    """Map K_n -> Lambda given by its values on eps^n_0 .. eps^n_{t_n}."""

    __slots__ = ("kx", "degree", "values")

    def __init__(self, kx, degree, values):
        if len(values) != kx.count(degree):
            raise CochainError(f"expected {kx.count(degree)} values in degree {degree}")
        self.kx = kx
        self.degree = degree
        normalized = []
        for i, val in enumerate(values):
            val = kx.rs.normal_form(val)
            o, t = kx.cobasis.o(degree, i)
            for path in val.terms:
                if path.o != o or kx.quiver.path_target(path) != t:
                    raise CochainError(
                        f"value {val.format(kx.quiver)} at slot {i} is not pinned "
                        f"between the generator's vertices")
            normalized.append(val)
        self.values = normalized

    @classmethod
    def zero(cls, kx, degree):
        f = kx.field
        return cls(kx, degree, [PathVector.zero(f) for _ in range(kx.count(degree))])

    def is_zero(self):
        return all(v.is_zero() for v in self.values)

    def _check_same_space(self, other):
        if self.degree != other.degree or self.kx is not other.kx:
            raise DimensionMismatch(
                "cannot combine cochains of different degrees or on different complexes")

    def __add__(self, other):
        self._check_same_space(other)
        return Cochain(self.kx, self.degree,
                       [a + b for a, b in zip(self.values, other.values)])

    def __sub__(self, other):
        self._check_same_space(other)
        return Cochain(self.kx, self.degree,
                       [a - b for a, b in zip(self.values, other.values)])

    def __neg__(self):
        return self.scale(self.kx.field.neg(self.kx.field.one))

    def scale(self, coeff):
        return Cochain(self.kx, self.degree, [v.scale(coeff) for v in self.values])

    def __eq__(self, other):
        return (isinstance(other, Cochain) and self.degree == other.degree
                and self.values == other.values)

    def internal_degrees(self):
        out = set()
        for v in self.values:
            out |= v.lengths()
        return out

    def is_homogeneous(self):
        return len(self.internal_degrees()) <= 1

    def internal_degree(self):
        degs = self.internal_degrees()
        if len(degs) > 1:
            raise CochainError("cochain is not homogeneous")
        return degs.pop() if degs else None

    def graded_piece(self, ell):
        kx = self.kx
        vals = []
        for v in self.values:
            vals.append(PathVector(kx.field,
                                   {p: c for p, c in v.terms.items() if len(p.arrows) == ell}))
        return Cochain(kx, self.degree, vals)

    def evaluate(self, x):
        """Value on a bimodule element: u . eps_i . v  ->  u lambda_i v."""
        acc = {}
        self.evaluate_into(acc, x, 1)
        return PathVector(self.kx.field, acc)

    def evaluate_into(self, acc, x, scale):
        """Add scale . (value on x) into the term dict acc; acc may be left
        holding zeros and, over F_p, unreduced values."""
        word_product = self.kx.rs.word_product
        for (u, i, v), coeff in x.terms.items():
            coeff *= scale
            for w, cw in self.values[i].terms.items():
                cw = coeff * cw
                for uw, cu in word_product(u, w).terms.items():
                    cu = cw * cu
                    for p, cp in word_product(uw, v).terms.items():
                        acc[p] = acc.get(p, 0) + cu * cp

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
    values = [eta.evaluate(kx._diff_eps(n + 1, r)) for r in range(kx.count(n + 1))]
    return Cochain(kx, n + 1, values)


def _cochain_coords(kx, n, ell):
    """Coordinate list [(slot, word)] for internal-degree-ell n-cochains."""
    coords = []
    for i in range(kx.count(n)):
        o, t = kx.cobasis.o(n, i)
        for w in kx.rs.basis_words(ell, o, t):
            coords.append((i, w))
    return coords


def _cochain_from_coords(kx, n, coords, items):
    """The cochain with coefficient c at coords[k] for each (k, c) in items."""
    values = [dict() for _ in range(kx.count(n))]
    for k, c in items:
        i, w = coords[k]
        values[i][w] = c
    return Cochain(kx, n, [PathVector(kx.field, v) for v in values])


def _coords_of_cochain(kx, coords, eta):
    f = kx.field
    index = {key: k for k, key in enumerate(coords)}
    vec = [f.zero] * len(coords)
    for i, val in enumerate(eta.values):
        for w, c in val.terms.items():
            k = index.get((i, w))
            if k is None:
                raise CochainError("cochain outside the coordinate slice")
            vec[k] = c
    return vec


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
            cocycles.append(_cochain_from_coords(kx, n, src, enumerate(vec)))
        if n >= 1 and e >= 1:
            B, _, bdst = _coboundary_matrix(kx, n - 1, e - 1)
            images = [{} for _ in range(B.cols)]  # the columns of B, by row
            for (r, col), v in B.entries.items():
                images[col][r] = v
            for row in echelon_basis([SparseVector(kx.field, im) for im in images], None):
                coboundaries.append(_cochain_from_coords(kx, n, bdst, row.terms.items()))
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
        piece = eta.graded_piece(e)
        A, src, dst = _coboundary_matrix(kx, n - 1, e - 1)
        b = _coords_of_cochain(kx, dst, piece)
        sol = solve_affine_system(A, b)
        if sol is None:
            return None
        witness = witness + _cochain_from_coords(kx, n - 1, src, enumerate(sol.particular))
    return witness


def same_class(a, b):
    """True when a and b are cohomologous (differ by a coboundary).

    Cochains of different degrees or on different complexes raise
    DimensionMismatch.  Equal value lists are one class without a solve;
    any other pair asks is_coboundary(a - b).
    """
    a._check_same_space(b)
    return a.values == b.values or is_coboundary(a - b) is not None


def cup_product(eta, theta):
    """(eta cup theta)(eps^{n+m}_j) = sum c_{pq}(n+m, j, n) lambda_p mu_q."""
    kx = eta.kx
    n, m = eta.degree, theta.degree
    f = kx.field
    values = []
    for j in range(kx.count(n + m)):
        acc = {}
        for (p, q), c in kx.c(n + m, j, n).items():
            for w, cw in kx.rs.multiply(eta.values[p], theta.values[q]).terms.items():
                acc[w] = acc.get(w, 0) + cw * c
        values.append(PathVector(f, acc))
    return Cochain(kx, n + m, values)
