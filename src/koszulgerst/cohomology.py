"""Hochschild cochains on K: coboundary, cocycle spaces, cup product.

A degree-n cochain is the list of its values on the free generators; values
live in Lambda (normal form) and are pinned between the generator's vertex
idempotents.  The coboundary is precomposition with the differential.  All
linear questions are sliced by internal degree (path length of the values):
the coboundary carries the length-l slice of degree n into the length-(l+1)
slice of degree n+1, so infinite-dimensional algebras stay finite work per
slice.  Cochain equality is value-list equality; class equality is the
separate same_class predicate.
"""

from typing import NamedTuple

from .errors import CochainError, UnboundedComputation
from .linalg import Matrix, _rref, nullspace_basis, solve_affine_system
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

    def __add__(self, other):
        assert self.degree == other.degree and self.kx is other.kx
        return Cochain(self.kx, self.degree,
                       [a + b for a, b in zip(self.values, other.values)])

    def __sub__(self, other):
        assert self.degree == other.degree and self.kx is other.kx
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
        kx = self.kx
        f = kx.field
        acc = PathVector.zero(f)
        for (u, i, v), coeff in x.terms.items():
            if self.values[i].is_zero():
                continue
            prod = kx.rs.multiply(PathVector.single(f, u), self.values[i])
            prod = kx.rs.multiply(prod, PathVector.single(f, v))
            acc = acc + prod.scale(coeff)
        return acc

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


def _cochain_from_coords(kx, n, coords, vec):
    f = kx.field
    values = [dict() for _ in range(kx.count(n))]
    for (i, w), c in zip(coords, vec):
        if c != f.zero:
            values[i][w] = f.add(values[i].get(w, f.zero), c)
    return Cochain(kx, n, [PathVector(f, v) for v in values])


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
    for col, (i, w) in enumerate(src):
        wvec = PathVector.single(f, w)
        for r in range(kx.count(n + 1)):
            for (u, j, v), coeff in kx._diff_eps(n + 1, r).terms.items():
                if j != i:
                    continue
                prod = kx.rs.multiply(PathVector.single(f, u), wvec)
                prod = kx.rs.multiply(prod, PathVector.single(f, v))
                for path, c in prod.terms.items():
                    key = (r, path)
                    row = dst_index[key]
                    cur = entries.get((row, col), f.zero)
                    new = f.add(cur, f.mul(coeff, c))
                    if new == f.zero:
                        entries.pop((row, col), None)
                    else:
                        entries[(row, col)] = new
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
            cocycles.append(_cochain_from_coords(kx, n, src, vec))
        if n >= 1 and e >= 1:
            B, _, bdst = _coboundary_matrix(kx, n - 1, e - 1)
            image_rows = []
            for col in range(B.cols):
                basis_vec = [kx.field.zero] * B.cols
                basis_vec[col] = kx.field.one
                image_rows.append({r: v for r, v in enumerate(B.apply(basis_vec))
                                   if v != kx.field.zero})
            _rref(image_rows, B.rows, kx.field)
            for row in image_rows:
                if row:
                    vec = [kx.field.zero] * len(bdst)
                    for c, v in row.items():
                        vec[c] = v
                    coboundaries.append(_cochain_from_coords(kx, n, bdst, vec))
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
        witness = witness + _cochain_from_coords(kx, n - 1, src, sol.particular)
    return witness


def same_class(a, b):
    """True when a and b are cohomologous (differ by a coboundary)."""
    return is_coboundary(a - b) is not None


def cup_product(eta, theta):
    """(eta cup theta)(eps^{n+m}_j) = sum c_{pq}(n+m, j, n) lambda_p mu_q."""
    kx = eta.kx
    n, m = eta.degree, theta.degree
    f = kx.field
    values = []
    for j in range(kx.count(n + m)):
        acc = PathVector.zero(f)
        for (p, q), c in kx.c(n + m, j, n).items():
            prod = kx.rs.multiply(eta.values[p], theta.values[q])
            acc = acc + prod.scale(c)
        values.append(acc)
    return Cochain(kx, n + m, values)
