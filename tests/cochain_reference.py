"""Cochains as the package built them before they were (slot, word)-keyed.

Kept as the reference for `cohomology`: a `ReferenceCochain` is the list of
its values on the generators, one PathVector per slot, and its constructor
puts every value in normal form and checks that it lies between its
generator's vertices, also for values just computed.  The linear questions
convert a cochain to (slot, word) coordinates and back with
`_cochain_from_coords` and `_coords_of_cochain`, and `is_coboundary` solves
each slice afresh: `_coboundary_matrix` builds the matrix of d* one source
coordinate at a time, and `solve_affine_reference` eliminates [A | b].
"""

from koszulgerst.cohomology import _cochain_coords
from koszulgerst.errors import CochainError, DimensionMismatch
from koszulgerst.linalg import Matrix
from koszulgerst.quiver import PathVector
from linalg_reference import solve_affine_reference


class ReferenceCochain:
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
        return ReferenceCochain(self.kx, self.degree,
                                [a + b for a, b in zip(self.values, other.values)])

    def __sub__(self, other):
        self._check_same_space(other)
        return ReferenceCochain(self.kx, self.degree,
                                [a - b for a, b in zip(self.values, other.values)])

    def __neg__(self):
        return self.scale(self.kx.field.neg(self.kx.field.one))

    def scale(self, coeff):
        return ReferenceCochain(self.kx, self.degree, [v.scale(coeff) for v in self.values])

    def __eq__(self, other):
        return (isinstance(other, ReferenceCochain) and self.degree == other.degree
                and self.values == other.values)

    def internal_degrees(self):
        out = set()
        for v in self.values:
            out |= v.lengths()
        return out

    def graded_piece(self, ell):
        kx = self.kx
        vals = []
        for v in self.values:
            vals.append(PathVector(kx.field,
                                   {p: c for p, c in v.terms.items() if len(p.arrows) == ell}))
        return ReferenceCochain(kx, self.degree, vals)

    def evaluate(self, x):
        """Value on a bimodule element: u . eps_i . v  ->  u lambda_i v."""
        word_product = self.kx.rs.word_product
        acc = {}
        for (u, i, v), coeff in x.terms.items():
            for w, cw in self.values[i].terms.items():
                cw = coeff * cw
                for uw, cu in word_product(u, w).terms.items():
                    cu = cw * cu
                    for p, cp in word_product(uw, v).terms.items():
                        acc[p] = acc.get(p, 0) + cu * cp
        return PathVector(self.kx.field, acc)

    def format(self):
        return "(" + ", ".join(v.format(self.kx.quiver) for v in self.values) + ")"


def coboundary(eta):
    kx = eta.kx
    n = eta.degree
    values = [eta.evaluate(kx._diff_eps(n + 1, r)) for r in range(kx.count(n + 1))]
    return ReferenceCochain(kx, n + 1, values)


def _coboundary_matrix(kx, n, ell):
    """Matrix of d*: C^{n, ell} -> C^{n+1, ell+1} in canonical coordinates,
    with the source and target coordinate lists."""
    src = _cochain_coords(kx, n, ell)
    dst = _cochain_coords(kx, n + 1, ell + 1)
    dst_index = {key: k for k, key in enumerate(dst)}
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
    return Matrix(kx.field, len(dst), len(src), entries), src, dst


def _cochain_from_coords(kx, n, coords, items):
    """The cochain with coefficient c at coords[k] for each (k, c) in items."""
    values = [dict() for _ in range(kx.count(n))]
    for k, c in items:
        i, w = coords[k]
        values[i][w] = c
    return ReferenceCochain(kx, n, [PathVector(kx.field, v) for v in values])


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


def is_coboundary(eta):
    kx = eta.kx
    n = eta.degree
    if eta.is_zero():
        return ReferenceCochain.zero(kx, n - 1) if n >= 1 else ReferenceCochain.zero(kx, 0)
    if n == 0:
        return None
    witness = ReferenceCochain.zero(kx, n - 1)
    for e in sorted(eta.internal_degrees()):
        if e == 0:
            return None
        piece = eta.graded_piece(e)
        A, src, dst = _coboundary_matrix(kx, n - 1, e - 1)
        b = _coords_of_cochain(kx, dst, piece)
        sol = solve_affine_reference(A, b)
        if sol is None:
            return None
        witness = witness + _cochain_from_coords(kx, n - 1, src, enumerate(sol.particular))
    return witness


def cup_product(eta, theta):
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
    return ReferenceCochain(kx, n + m, values)
