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
slice, and the (slot, word) keys are the coordinates of each slice.  Each
slice of d* is built once per complex with its Elimination: cocycle_space
reads its kernel and its images, is_coboundary solves through it.
Cochain equality is term equality; class equality is the separate
same_class predicate.
"""

from typing import NamedTuple

from .errors import CochainError, DimensionMismatch, UnboundedComputation
from .linalg import Elimination, GradedVector, echelon_basis
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


class _CoboundarySlice(NamedTuple):
    """d*: C^{n, ell} -> C^{n+1, ell+1}, in (slot, word) coordinates."""

    source: list  # the coordinates of C^{n, ell}
    target: set  # the coordinates of C^{n+1, ell+1}
    images: list  # d* of each source coordinate, a Cochain of degree n+1
    elimination: Elimination  # of the images' terms


def _coboundary_slice(kx, n, ell):
    """The slice of d* at (n, ell), built once per complex.

    Values of d* eta pick up one arrow, so the preserved grading is value
    length minus homological degree; slicing by value length per fixed n
    keeps every solve finite.  One pass over the d(eps^{n+1}_r) builds all
    images: a term (u, i, v) feeds the source coordinates of slot i.
    """
    got = kx._coboundary_slices.get((n, ell))
    if got is not None:
        return got
    source = _cochain_coords(kx, n, ell)
    columns = [{} for _ in source]
    by_slot = {}
    for column, (i, w) in zip(columns, source):
        by_slot.setdefault(i, []).append((column, w))
    word_product = kx.rs.word_product
    for r in range(kx.count(n + 1)):
        for (u, i, v), coeff in kx._diff_eps(n + 1, r).terms.items():
            for column, w in by_slot.get(i, ()):
                for uw, cu in word_product(u, w).terms.items():
                    cu = coeff * cu
                    for path, c in word_product(uw, v).terms.items():
                        key = (r, path)
                        column[key] = column.get(key, 0) + cu * c
    images = [Cochain(kx, n + 1, column) for column in columns]
    return kx._coboundary_slices.setdefault((n, ell), _CoboundarySlice(
        source, set(_cochain_coords(kx, n + 1, ell + 1)), images,
        Elimination(kx.field, [image.terms for image in images])))


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
        cut = _coboundary_slice(kx, n, e)
        cocycles += [Cochain(kx, n, zip(cut.source, vec)) for vec in cut.elimination.nullspace]
        if n >= 1 and e >= 1:
            coboundaries += echelon_basis(_coboundary_slice(kx, n - 1, e - 1).images, None)
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
        cut = _coboundary_slice(kx, n - 1, e - 1)
        if not piece.keys() <= cut.target:
            raise CochainError("cochain outside the coordinate slice")
        solution = cut.elimination.solve(piece)
        if solution is None:
            return None
        witness = witness + Cochain(kx, n - 1, ((cut.source[col], c) for col, c in solution))
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
