"""Eager field arithmetic and eager Gauss-Jordan elimination.

Kept as the reference for the package's native arithmetic: `add` and `sub`
reduce every sum and difference at once (the package itself accumulates
with the native + and - and reduces in field.canon), and `rref` is the
elimination that updates rows through the field's sub, mul and inv, where
`linalg._rref` uses the native - and * with one % p per step.
"""


def add(field, a, b):
    """a + b in the field, reduced."""
    return (a + b) % field.p if field.characteristic else a + b


def sub(field, a, b):
    """a - b in the field, reduced."""
    return (a - b) % field.p if field.characteristic else a - b


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
                new = sub(field, cur, field.mul(factor, v))
                if new == field.zero:
                    other.pop(c, None)
                else:
                    other[c] = new
        pivots.append(col)
        pivot_row += 1
        if pivot_row == len(rows):
            break
    return pivots
