"""Eager field arithmetic and eager Gauss-Jordan elimination.

Kept as the reference for the package's native arithmetic: `add`, `sub` and
`mul` reduce every sum, difference and product at once (the package itself
accumulates with the native +, - and * and reduces in field.canon), and
`rref` is the elimination that updates rows through `sub`, `mul` and the
field's inv, where
`linalg._rref` uses the native - and * with one % p per step.
`solve_affine_reference` solves A x = b by eliminating [A | b] afresh,
where `linalg.solve_affine_system` and `solve_many` eliminate A once,
recording its row operations, and replay them on each right-hand side.
`rref` with naug > 0 also eliminates [A | I], whose identity block is the
transform that those recorded operations multiply by.
`single` spells the path vector 1*path, which the package never builds.
"""

from koszulgerst.errors import DimensionMismatch
from koszulgerst.linalg import AffineSolution, _nullspace_from_rref
from koszulgerst.quiver import PathVector


def add(field, a, b):
    """a + b in the field, reduced."""
    return (a + b) % field.p if field.characteristic else a + b


def sub(field, a, b):
    """a - b in the field, reduced."""
    return (a - b) % field.p if field.characteristic else a - b


def mul(field, a, b):
    """a * b in the field, reduced."""
    return (a * b) % field.p if field.characteristic else a * b


def single(field, path):
    """The path vector 1*path."""
    return PathVector(field, {path: field.one})


def rref(rows, ncols, field, naug=0):
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
                row[c] = mul(field, row[c], inv)
        for i in range(len(rows)):
            if i == pivot_row:
                continue
            factor = rows[i].get(col)
            if factor is None:
                continue
            other = rows[i]
            for c, v in row.items():
                cur = other.get(c, field.zero)
                new = sub(field, cur, mul(field, factor, v))
                if new == field.zero:
                    other.pop(c, None)
                else:
                    other[c] = new
        pivots.append(col)
        pivot_row += 1
        if pivot_row == len(rows):
            break
    return pivots


def solve_affine_reference(A, b):
    """Solve A x = b by the RREF of [A | b]: None when inconsistent, else the
    canonical particular solution and the canonical nullspace basis."""
    if len(b) != A.rows:
        raise DimensionMismatch(f"rhs length {len(b)} != rows {A.rows}")
    field = A.field
    rows = A.row_dicts()
    aug = A.cols
    for i, v in enumerate(b):
        v = field(v)
        if v != field.zero:
            rows[i][aug] = v
    pivots = rref(rows, A.cols + 1, field, naug=1)
    # inconsistent iff a row reduces to (0 ... 0 | nonzero)
    for i in range(len(pivots), len(rows)):
        if rows[i].get(aug) is not None:
            return None
    particular = [field.zero] * A.cols
    for i, pc in enumerate(pivots):
        particular[pc] = rows[i].get(aug, field.zero)
    nullspace = _nullspace_from_rref(rows, pivots, A.cols, field)
    return AffineSolution(particular, nullspace)
