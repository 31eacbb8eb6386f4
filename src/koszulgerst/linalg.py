"""Exact dense/sparse linear solving over Q and F_p.

Everything downstream ("there exist scalars such that ...") reduces to the
two entry points here: solve_affine_system and nullspace_basis.  Both are
deterministic: elimination is plain Gauss-Jordan scanning columns left to
right, the particular solution is the reduced-row-echelon canonical one
(free variables zero), and nullspace bases are the canonical RREF ones.
"""

from typing import NamedTuple

from .errors import DimensionMismatch


class Matrix:
    """Sparse matrix: entries maps (row, col) -> nonzero raw field value."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field, rows, cols, entries=None):
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = {}
        if entries:
            items = entries.items() if isinstance(entries, dict) else entries
            for (r, c), v in items:
                if not (0 <= r < rows and 0 <= c < cols):
                    raise DimensionMismatch(f"entry ({r},{c}) outside {rows}x{cols}")
                if v != field.zero:
                    self.entries[(r, c)] = v

    @classmethod
    def identity(cls, field, n):
        return cls(field, n, n, {(i, i): field.one for i in range(n)})

    @classmethod
    def zero(cls, field, rows, cols):
        return cls(field, rows, cols)

    def row_dicts(self):
        rows = [dict() for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            rows[r][c] = v
        return rows

    def apply(self, vec):
        """Matrix-vector product over the field."""
        if len(vec) != self.cols:
            raise DimensionMismatch("vector length != cols")
        f = self.field
        out = [f.zero] * self.rows
        for (r, c), v in self.entries.items():
            out[r] = f.add(out[r], f.mul(v, vec[c]))
        return out


class AffineSolution(NamedTuple):
    particular: list
    nullspace: list  # list of column vectors spanning the homogeneous solutions


def _rref(rows, ncols, field, naug=0):
    """In-place RREF on sparse row dicts; the last naug columns never pivot.

    Returns the list of pivot columns (ascending).
    """
    pivots = []
    pivot_row = 0
    for col in range(ncols - naug):
        found = -1
        for i in range(pivot_row, len(rows)):
            if rows[i].get(col) is not None:
                found = i
                break
        if found < 0:
            continue
        rows[pivot_row], rows[found] = rows[found], rows[pivot_row]
        row = rows[pivot_row]
        inv = field.inv(row[col])
        if inv != field.one:
            for c in list(row):
                row[c] = field.mul(row[c], inv)
        for i in range(len(rows)):
            if i == pivot_row:
                continue
            factor = rows[i].get(col)
            if factor is None:
                continue
            other = rows[i]
            for c, v in row.items():
                cur = other.get(c, field.zero)
                new = field.sub(cur, field.mul(factor, v))
                if new == field.zero:
                    other.pop(c, None)
                else:
                    other[c] = new
        pivots.append(col)
        pivot_row += 1
        if pivot_row == len(rows):
            break
    return pivots


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


def rank(A):
    rows = A.row_dicts()
    return len(_rref(rows, A.cols, A.field))


def nullspace_basis(A):
    """Canonical RREF basis of the kernel of A; count = cols - rank."""
    rows = A.row_dicts()
    pivots = _rref(rows, A.cols, A.field)
    return _nullspace_from_rref(rows, pivots, A.cols, A.field)


def solve_affine_system(A, b):
    """Solve A x = b exactly.

    Returns None when inconsistent, otherwise an AffineSolution holding the
    canonical particular solution (free variables zero) and the canonical
    nullspace basis.
    """
    if len(b) != A.rows:
        raise DimensionMismatch(f"rhs length {len(b)} != rows {A.rows}")
    field = A.field
    rows = A.row_dicts()
    aug = A.cols
    for i, v in enumerate(b):
        v = field(v)
        if v != field.zero:
            rows[i][aug] = v
    pivots = _rref(rows, A.cols + 1, field, naug=1)
    # inconsistent iff a row reduces to (0 ... 0 | nonzero)
    for i in range(len(pivots), len(rows)):
        if rows[i].get(aug) is not None:
            return None
    particular = [field.zero] * A.cols
    for i, pc in enumerate(pivots):
        particular[pc] = rows[i].get(aug, field.zero)
    nullspace = _nullspace_from_rref(rows, pivots, A.cols, field)
    return AffineSolution(particular, nullspace)


def solve_many(A, rhs_list):
    """Solve A x = b for several right-hand sides with one elimination.

    Returns a list of canonical particular solutions (None where
    inconsistent).  Nothing in the package calls it: the tests use it as
    an independent reference for the comultiplicative scalars, which
    ComultTable reads off pivot coordinates instead.
    """
    field = A.field
    k = len(rhs_list)
    for b in rhs_list:
        if len(b) != A.rows:
            raise DimensionMismatch("rhs length != rows")
    rows = A.row_dicts()
    for j, b in enumerate(rhs_list):
        for i, v in enumerate(b):
            if v != field.zero:
                rows[i][A.cols + j] = v
    pivots = _rref(rows, A.cols + k, field, naug=k)
    out = []
    for j in range(k):
        aug = A.cols + j
        bad = any(rows[i].get(aug) is not None for i in range(len(pivots), len(rows)))
        if bad:
            out.append(None)
            continue
        particular = [field.zero] * A.cols
        for i, pc in enumerate(pivots):
            particular[pc] = rows[i].get(aug, field.zero)
        out.append(particular)
    return out
