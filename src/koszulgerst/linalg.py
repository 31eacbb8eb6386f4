"""Exact sparse vectors and linear solving over Q and F_p.

Every element the package computes with (paths in kQ, elements of the
resolution, bar words, tensor-square terms) is a SparseVector: a dict from
hashable keys to nonzero canonical field values.  Loops accumulate into a
plain dict with the native + and * (d[k] = d.get(k, 0) + a * b), so the
dict may hold unreduced values and zeros, and hand it to the constructor,
whose body is field.canon: the one place values are reduced and zero
coefficients dropped (see the fields module docstring).

Everything downstream ("there exist scalars such that ...") reduces to the
entry points here: Elimination, solve_affine_system, nullspace_basis, rank
and echelon_basis.  An Elimination eliminates a map once, recording its row
operations, and solves for any number of right-hand sides by replaying
them on each; its kernel is computed only when read.  The lifting systems
and the coboundary slices each keep one (only the slices read the kernel),
and solve_affine_system and solve_many wrap it.  All are deterministic:
elimination is plain Gauss-Jordan scanning columns left to right, the
particular solution is the reduced-row-echelon canonical one (free
variables zero), nullspace bases are the canonical RREF ones, and an
echelon basis is the canonical reduced echelon form of a span.
"""

from typing import NamedTuple

from .errors import DimensionMismatch, FieldMismatch


class SparseVector:
    """Exact linear combination of hashable keys (no zero coefficients)."""

    __slots__ = ("field", "terms")

    degree = None  # GradedVector stores one; vectors of different degrees never add

    def __init__(self, field, terms=None):
        self.field = field
        self.terms = (field.canon(terms.items() if isinstance(terms, dict) else terms)
                      if terms else {})

    def _like(self, terms):
        """A vector of the same class and degree with the given terms."""
        return type(self)(self.field, terms)

    @classmethod
    def zero(cls, field):
        return cls(field)

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def _combine(self, other, sign):
        """self + sign . other in one pass: self's keys, then other's new ones."""
        f = self.field
        if other.field is not f and other.field != f:
            raise FieldMismatch("cannot add vectors over different fields")
        if other.degree != self.degree:
            raise DimensionMismatch(
                f"cannot add vectors of degrees {self.degree} and {other.degree}")
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) + sign * c
        return self._like(out)

    def __neg__(self):
        return self.scale(self.field.neg(self.field.one))

    def scale(self, coeff):
        f = self.field
        if coeff == f.zero:
            return self._like(None)
        return self._like([(key, c * coeff) for key, c in self.terms.items()])

    def __eq__(self, other):
        return (isinstance(other, SparseVector) and self.degree == other.degree
                and (self.field is other.field or self.field == other.field)
                and self.terms == other.terms)

    def _format_sum(self, words):
        """'w1 - w2 + c*w3' from (word, coefficient) pairs, in the given order."""
        bits = []
        for word, c in words:
            cs = self.field.format(c)
            if cs == "1":
                bits.append(word)
            elif cs == "-1":
                bits.append(f"-{word}")
            else:
                bits.append(f"{cs}*{word}")
        return " + ".join(bits).replace("+ -", "- ") if bits else "0"


class GradedVector(SparseVector):
    """SparseVector in one homological degree (bar words, elements of K)."""

    __slots__ = ("degree",)

    def __init__(self, field, degree, terms=None):
        SparseVector.__init__(self, field, terms)
        self.degree = degree

    def _like(self, terms):
        return type(self)(self.field, self.degree, terms)

    @classmethod
    def zero(cls, field, degree):
        return cls(field, degree)


class Matrix:
    """Sparse matrix: entries maps (row, col) -> nonzero canonical field value."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field, rows, cols, entries=None):
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = (field.canon(entries.items() if isinstance(entries, dict) else entries)
                        if entries else {})
        for r, c in self.entries:
            if not (0 <= r < rows and 0 <= c < cols):
                raise DimensionMismatch(f"entry ({r},{c}) outside {rows}x{cols}")

    def row_dicts(self):
        rows = [dict() for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            rows[r][c] = v
        return rows


class AffineSolution(NamedTuple):
    particular: list
    nullspace: list  # list of column vectors spanning the homogeneous solutions


def _rref(rows, ncols, field, operations=None):
    """In-place RREF on sparse row dicts.

    Rows are updated with the native - and *; over F_p each new value is
    reduced % p at once, so every stored value stays canonical.  If
    operations is a list, each pivot step is appended to it as (pivot row,
    row swapped into it, the inverse it was scaled by or None, [(row,
    factor) for each row that lost factor times the pivot row]), which
    _replay applies to a column.  Returns the list of pivot columns (ascending).
    """
    p = field.characteristic
    pivots = []
    pivot_row = 0
    for col in range(ncols):
        found = -1
        for i in range(pivot_row, len(rows)):
            if rows[i].get(col) is not None:
                found = i
                break
        if found < 0:
            continue
        rows[pivot_row], rows[found] = rows[found], rows[pivot_row]
        row = rows[pivot_row]
        inv = None
        if row[col] != 1:
            inv = field.inv(row[col])
            for c, v in row.items():
                row[c] = v * inv % p if p else v * inv
        updates = []
        for i in range(len(rows)):
            if i == pivot_row:
                continue
            other = rows[i]
            factor = other.get(col)
            if factor is None:
                continue
            updates.append((i, factor))
            for c, v in row.items():
                new = other.get(c, 0) - factor * v
                if p:
                    new %= p
                if new:
                    other[c] = new
                else:
                    other.pop(c, None)
        if operations is not None:
            operations.append((pivot_row, found, inv, updates))
        pivots.append(col)
        pivot_row += 1
        if pivot_row == len(rows):
            break
    return pivots


def _replay(operations, x, p):
    """Apply the row operations _rref recorded to the dense column x, in
    place: x becomes T x for the T that the elimination multiplied its rows
    by.  Reduced % p at every step over F_p, as in _rref; a step whose
    pivot entry of x is zero only swaps."""
    for r, found, inv, updates in operations:
        if found != r:
            x[r], x[found] = x[found], x[r]
        v = x[r]
        if not v:
            continue
        if inv is not None:
            v = x[r] = v * inv % p if p else v * inv
        for i, factor in updates:
            new = x[i] - factor * v
            x[i] = new % p if p else new


def _nullspace_from_rref(rows, pivots, ncols, field):
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free_cols:
        vec = [field.zero] * ncols
        vec[fc] = field.one
        for i, pc in enumerate(pivots):
            v = rows[i].get(fc)
            if v is not None:
                vec[pc] = field.neg(v)
        basis.append(vec)
    return basis


def echelon_basis(vectors, order_key):
    """Reduced echelon basis of span(vectors), pivots first in order_key order.

    The coordinates are the keys of the vectors sorted by order_key (as in
    sorted), so each basis vector is monic on its pivot key and zero on
    every other pivot key.  Zero rows are dropped; the basis vectors have
    the class and degree of the first input vector.
    """
    if not vectors:
        return []
    support = sorted({key for v in vectors for key in v.terms}, key=order_key)
    col_of = {key: i for i, key in enumerate(support)}
    rows = [{col_of[key]: c for key, c in v.terms.items()} for v in vectors]
    _rref(rows, len(support), vectors[0].field)
    return [vectors[0]._like({support[c]: v for c, v in row.items()})
            for row in rows if row]


def rank(A):
    rows = A.row_dicts()
    return len(_rref(rows, A.cols, A.field))


def nullspace_basis(A):
    """Canonical RREF basis of the kernel of A; count = cols - rank."""
    rows = A.row_dicts()
    pivots = _rref(rows, A.cols, A.field)
    return _nullspace_from_rref(rows, pivots, A.cols, A.field)


class Elimination:
    """A x = b for many b: the columns of A eliminated once, its row
    operations recorded and replayed on each b.

    `columns` lists A's columns as {row key: canonical value} dicts, and
    `index` numbers the row keys in order of first appearance.  The RREF
    of A gives the pivot columns; `operations` records its row operations
    (see _rref), whose product T has T A reduced.  `nullspace`, the
    canonical RREF kernel basis as dense lists, is computed on first read
    from the pivot rows, which are kept until then.
    """

    __slots__ = ("field", "index", "pivots", "operations", "_pivot_rows", "_nullspace")

    def __init__(self, field, columns):
        ncols = len(columns)
        self.index = index = {}
        rows = []
        for j, column in enumerate(columns):
            for key, c in column.items():
                row = index.get(key)
                if row is None:
                    row = index[key] = len(rows)
                    rows.append({})
                rows[row][j] = c
        self.field = field
        self.operations = []
        self.pivots = _rref(rows, ncols, field, self.operations)
        self._pivot_rows = (rows[:len(self.pivots)], ncols)
        self._nullspace = None

    @property
    def nullspace(self):
        if self._nullspace is None:
            rows, ncols = self._pivot_rows
            self._nullspace = _nullspace_from_rref(rows, self.pivots, ncols, self.field)
            self._pivot_rows = None
        return self._nullspace

    def solve(self, b):
        """The canonical solution (free variables zero) of A x = b, b =
        {row key: nonzero value}, as (column, value) pairs in pivot order:
        (T b)[i] at pivots[i].  None if some (T b)[i] with i >= rank is
        nonzero or b holds a key no column touches."""
        index = self.index
        x = [0] * len(index)
        for key, v in b.items():
            row = index.get(key)
            if row is None:
                return None
            x[row] = v
        _replay(self.operations, x, self.field.characteristic)
        pivots = self.pivots
        if any(x[len(pivots):]):
            return None
        return [(col, v) for col, v in zip(pivots, x) if v]


def _solve_all(A, rhs_list):
    """A's columns eliminated once, and the dense canonical solution of
    A x = b (None where inconsistent) for each dense b in rhs_list."""
    for b in rhs_list:
        if len(b) != A.rows:
            raise DimensionMismatch(f"rhs length {len(b)} != rows {A.rows}")
    f = A.field
    columns = [{} for _ in range(A.cols)]
    for (r, c), v in A.entries.items():
        columns[c][r] = v
    elimination = Elimination(f, columns)
    out = []
    for b in rhs_list:
        x = elimination.solve(f.canon((i, f(v)) for i, v in enumerate(b)))
        if x is not None:
            x = dict(x)
            x = [x.get(c, f.zero) for c in range(A.cols)]
        out.append(x)
    return elimination, out


def solve_affine_system(A, b):
    """Solve A x = b exactly.

    Returns None when inconsistent, otherwise an AffineSolution holding the
    canonical particular solution (free variables zero) and the canonical
    nullspace basis.
    """
    elimination, [particular] = _solve_all(A, [b])
    return None if particular is None else AffineSolution(particular, elimination.nullspace)


def solve_many(A, rhs_list):
    """Solve A x = b for several right-hand sides with one elimination.

    Returns a list of canonical particular solutions (None where
    inconsistent).  Nothing in the package calls it: the tests use it as
    an independent reference for the comultiplicative scalars, which
    ComultTable builds from products in the quadratic dual A^! instead.
    """
    return _solve_all(A, rhs_list)[1]
