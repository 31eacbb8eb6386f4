"""Exact solving: worked examples verified by substitution, plus invariants."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koszulgerst.errors import DimensionMismatch
from koszulgerst.fields import QQ, PrimeField
from koszulgerst.linalg import (GradedVector, Matrix, SparseVector, _replay, _rref,
                                echelon_basis, nullspace_basis, rank, solve_affine_system,
                                solve_many)

from linalg_reference import add, mul, rref, solve_affine_reference

F5 = PrimeField(5)


def mat(field, rows):
    entries = {}
    for r, row in enumerate(rows):
        for c, v in enumerate(row):
            entries[(r, c)] = field(v)
    return Matrix(field, len(rows), len(rows[0]) if rows else 0, entries)


def identity(field, n):
    return Matrix(field, n, n, {(i, i): field.one for i in range(n)})


def apply(A, vec):
    """Matrix-vector product over the field: the substitution reference."""
    assert len(vec) == A.cols
    f = A.field
    out = [f.zero] * A.rows
    for (r, c), v in A.entries.items():
        out[r] = add(f, out[r], mul(f, v, vec[c]))
    return out


def test_identity_system():
    A = identity(QQ, 3)
    sol = solve_affine_system(A, [1, 2, 3])
    assert sol.particular == [Fraction(1), Fraction(2), Fraction(3)]
    assert sol.nullspace == []


def test_zero_map():
    A = Matrix(QQ, 2, 2)
    sol = solve_affine_system(A, [0, 0])
    assert sol.particular == [Fraction(0), Fraction(0)]
    assert len(sol.nullspace) == 2


def test_rank_deficient_system_checked_by_substitution():
    A = mat(QQ, [[1, 1], [2, 2]])
    sol = solve_affine_system(A, [3, 6])
    assert sol.particular == [Fraction(3), Fraction(0)]
    assert apply(A, sol.particular) == [Fraction(3), Fraction(6)]
    assert len(sol.nullspace) == 1
    assert sol.nullspace[0] == [Fraction(-1), Fraction(1)] or \
        sol.nullspace[0] == [Fraction(1), Fraction(-1)]
    for vec in sol.nullspace:
        assert apply(A, vec) == [Fraction(0), Fraction(0)]


def test_inconsistent_system():
    A = mat(QQ, [[1, 1], [2, 2]])
    assert solve_affine_system(A, [3, 7]) is None


def test_nullspace_identity_and_zero():
    assert nullspace_basis(identity(QQ, 4)) == []
    basis = nullspace_basis(Matrix(QQ, 3, 5))
    assert len(basis) == 5
    for i, vec in enumerate(basis):
        assert vec[i] == Fraction(1)
        assert sum(1 for v in vec if v != 0) == 1


def test_nullspace_over_prime_field_by_substitution():
    A = mat(F5, [[1, 2, 3]])
    basis = nullspace_basis(A)
    assert len(basis) == 2
    for vec in basis:
        assert apply(A, vec) == [0]


def test_rank_nullity_random(rng):
    for field in (QQ, F5):
        for _ in range(20):
            rows = rng.randrange(1, 6)
            cols = rng.randrange(1, 6)
            A = mat(field, [[field(rng.randrange(-4, 5)) for _ in range(cols)]
                            for _ in range(rows)])
            assert rank(A) + len(nullspace_basis(A)) == cols


def test_solution_substitutes_back_random(rng):
    for field in (QQ, F5):
        for _ in range(20):
            rows = rng.randrange(1, 6)
            cols = rng.randrange(1, 6)
            A = mat(field, [[field(rng.randrange(-4, 5)) for _ in range(cols)]
                            for _ in range(rows)])
            x = [field(rng.randrange(-4, 5)) for _ in range(cols)]
            b = apply(A, x)
            sol = solve_affine_system(A, b)
            assert sol is not None
            assert apply(A, sol.particular) == b
            for vec in sol.nullspace:
                assert apply(A, vec) == [field.zero] * rows


def test_determinism():
    A = mat(QQ, [[2, 4, 1], [1, 2, 3], [0, 0, 5]])
    first = solve_affine_system(A, [1, 2, 3])
    second = solve_affine_system(A, [1, 2, 3])
    assert first == second
    assert nullspace_basis(A) == nullspace_basis(A)


def test_dimension_mismatch():
    A = identity(QQ, 2)
    with pytest.raises(DimensionMismatch):
        solve_affine_system(A, [1, 2, 3])
    with pytest.raises(DimensionMismatch):
        Matrix(QQ, 1, 1, {(1, 0): QQ(1)})


def test_prime_field_validation():
    from koszulgerst.errors import CharacteristicTwo
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(CharacteristicTwo):
        PrimeField(2)
    assert PrimeField(7).inv(3) == 5
    assert PrimeField(5)(QQ("1/2")) == 3


def test_field_mismatch_on_vector_arithmetic():
    from koszulgerst.errors import FieldMismatch
    from koszulgerst.quiver import Path, PathVector
    p = Path(0, ())
    with pytest.raises(FieldMismatch):
        PathVector.single(QQ, p) + PathVector.single(F5, p)


def test_sparse_vector_constructor_drops_zeros():
    from koszulgerst.linalg import GradedVector, SparseVector
    v = SparseVector(F5, {"a": 1, "b": 0})
    assert v.terms == {"a": 1}
    assert (v + SparseVector(F5, {"a": 4})).is_zero()
    assert (v - v).is_zero() and v.scale(0).is_zero()
    assert -v == SparseVector(F5, {"a": 4})
    w = GradedVector(QQ, 2, [("x", Fraction(1, 2)), ("y", 0)])
    assert w.terms == {"x": Fraction(1, 2)} and w.scale(2).degree == 2
    assert w != GradedVector(QQ, 3, w.terms)


def test_degree_mismatch_on_graded_vectors():
    from koszulgerst.linalg import GradedVector
    from koszulgerst.quiver import Path
    from koszulgerst.resolution import BimoduleElement
    p = Path(0, ())
    with pytest.raises(DimensionMismatch):
        BimoduleElement(QQ, 1, {(p, 0, p): 1}) + BimoduleElement(QQ, 2, {(p, 0, p): 1})
    with pytest.raises(DimensionMismatch):
        GradedVector(QQ, 1, {(p, p): 1}) - GradedVector(QQ, 0, {(p,): 1})


def test_field_mismatch_on_graded_vectors():
    from koszulgerst.errors import FieldMismatch
    from koszulgerst.quiver import Path
    from koszulgerst.resolution import BimoduleElement
    p = Path(0, ())
    with pytest.raises(FieldMismatch):
        BimoduleElement(QQ, 1, {(p, 0, p): 1}) + BimoduleElement(F5, 1, {(p, 0, p): 1})


def test_echelon_basis_of_nothing_is_empty():
    assert echelon_basis([], None) == []
    assert echelon_basis([SparseVector(QQ), SparseVector(QQ)], None) == []


def test_echelon_basis_drops_dependent_rows():
    v = SparseVector(QQ, {"a": 1, "b": 2})
    basis = echelon_basis([v, SparseVector(QQ), v.scale(3)], None)
    assert basis == [SparseVector(QQ, {"a": 1, "b": 2})]


def test_echelon_basis_pivots_follow_the_order_key():
    # keys in the order c < b < a: pivots on c, then b; each row is monic
    # on its pivot and zero on the other pivot
    order = {"c": 0, "b": 1, "a": 2}.__getitem__
    vectors = [SparseVector(QQ, {"a": 1, "c": 2}), SparseVector(QQ, {"b": 3, "c": 1})]
    basis = echelon_basis(vectors, order)
    assert basis == [SparseVector(QQ, {"c": 1, "a": Fraction(1, 2)}),
                     SparseVector(QQ, {"b": 1, "a": Fraction(-1, 6)})]
    assert [min(v.terms, key=order) for v in basis] == ["c", "b"]
    # the default key order puts the pivots on a, then b
    assert [min(v.terms) for v in echelon_basis(vectors, None)] == ["a", "b"]


def test_echelon_basis_keeps_class_and_degree():
    vectors = [GradedVector(F5, 3, {("x", "y"): 2, ("y",): 1}),
               GradedVector(F5, 3, {("y",): 4})]
    basis = echelon_basis(vectors, None)
    assert basis == [GradedVector(F5, 3, {("x", "y"): 1}), GradedVector(F5, 3, {("y",): 1})]
    assert all(type(v) is GradedVector and v.degree == 3 for v in basis)


def test_echelon_basis_size_is_the_rank(rng):
    for field in (QQ, F5):
        for _ in range(20):
            rows = [[field(rng.randrange(-2, 3)) for _ in range(rng.randrange(1, 6))]
                    for _ in range(rng.randrange(1, 6))]
            vectors = [SparseVector(field, enumerate(row)) for row in rows]
            width = max(len(row) for row in rows)
            A = mat(field, [row + [field.zero] * (width - len(row)) for row in rows])
            assert len(echelon_basis(vectors, None)) == rank(A)


def test_matrix_canonicalizes_then_rejects_out_of_range_entries():
    A = Matrix(F5, 2, 2, {(0, 0): 7, (0, 1): -1, (1, 1): 10, (1, 0): 0})
    assert A.entries == {(0, 0): 2, (0, 1): 4}
    with pytest.raises(DimensionMismatch):
        Matrix(F5, 2, 2, {(0, 0): 1, (2, 0): 6})
    with pytest.raises(DimensionMismatch):
        Matrix(F5, 2, 2, [((0, 0), -3), ((0, 2), -1)])
    with pytest.raises(DimensionMismatch):
        Matrix(QQ, 1, 1, {(0, -1): Fraction(1, 2)})
    # a zero has no place in a sparse matrix, wherever it is keyed
    assert Matrix(F5, 1, 1, {(0, 0): 1, (3, 3): 5}).entries == {(0, 0): 1}


@settings(database=None, derandomize=True, max_examples=120, deadline=None)
@given(st.sampled_from([QQ, F5, PrimeField(7), PrimeField(32003)]),
       st.lists(st.tuples(st.integers(0, 5), st.integers(-40, 40), st.integers(-40, 40),
                          st.sampled_from([1, 2, 3, 4, 6]), st.booleans()), max_size=30))
def test_native_accumulation_gives_the_eager_vector(field, draws):
    # the accumulate loops add a * b with native + and *, leaving the dict
    # unreduced, and the constructor's canon reduces once; eager reduction
    # through add / mul must give the identical vector
    terms = [(key, field(Fraction(a, den)), field(Fraction(b, den)), minus)
             for key, a, b, den, minus in draws]
    native, eager = {}, {}
    for key, a, b, minus in terms:
        native[key] = native.get(key, 0) + (-a if minus else a) * b
        sign = field.neg(field.one) if minus else field.one
        eager[key] = add(field, eager.get(key, field.zero), mul(field, sign, mul(field, a, b)))
    got = SparseVector(field, native)
    want = [(key, c) for key, c in eager.items() if c != field.zero]
    assert list(got.terms.items()) == want
    assert [type(c) for c in got.terms.values()] == [type(c) for _, c in want]
    assert got == SparseVector(field, eager)


@settings(database=None, derandomize=True, max_examples=200, deadline=None)
@given(st.sampled_from([QQ, F5, PrimeField(32003)]), st.integers(1, 6), st.integers(1, 6),
       st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                          st.integers(-9, 9), st.sampled_from([1, 1, 2, 3])),
                max_size=30))
def test_native_rref_matches_the_eager_reference(field, nrows, ncols, draws):
    # _rref updates rows with native - and * (reducing % p at each step over
    # F_p) and records its row operations; the eager reference goes through
    # sub, mul and the field's inv, on [A | I].  Pivots and A's rows must be
    # identical, with the same key order and value types, and replaying the
    # recorded operations on the identity must give the reference's
    # identity block, column by column
    rows = [{} for _ in range(nrows)]
    for r, c, num, den in draws:
        value = field(Fraction(num, den))
        if r < nrows and c < ncols and value != field.zero:
            rows[r][c] = value
    native, plain = [dict(row) for row in rows], [dict(row) for row in rows]
    eager = [{**row, ncols + r: field.one} for r, row in enumerate(rows)]
    operations = []
    pivots = _rref(native, ncols, field, operations)
    assert pivots == rref(eager, ncols + nrows, field, naug=nrows) == _rref(plain, ncols, field)
    assert [list(row.items()) for row in native] == [list(row.items()) for row in plain] == \
        [[(c, v) for c, v in row.items() if c < ncols] for row in eager]
    assert [[type(v) for v in row.values()] for row in native] == \
        [[type(v) for c, v in row.items() if c < ncols] for row in eager]
    for j in range(nrows):
        x = [field.zero] * nrows
        x[j] = field.one
        _replay(operations, x, field.characteristic)
        want = [row.get(ncols + j, field.zero) for row in eager]
        assert x == want
        assert [type(v) for v in x if v] == [type(v) for v in want if v]


@settings(database=None, derandomize=True, max_examples=120, deadline=None)
@given(st.sampled_from([QQ, F5, PrimeField(32003)]),
       st.lists(st.tuples(st.integers(0, 7), st.integers(-9, 9), st.sampled_from([1, 2, 3])),
                max_size=8),
       st.lists(st.tuples(st.integers(0, 7), st.integers(-9, 9), st.sampled_from([1, 2, 3])),
                max_size=8))
def test_difference_is_the_sum_with_the_negated_vector(field, left, right):
    # a - b runs in one pass; it must equal a + (-1)b, keys in the same order
    # (a's keys, then b's new ones) and values of the same types
    a, b = (SparseVector(field, {key: field(Fraction(num, den)) for key, num, den in draws})
            for draws in (left, right))
    got, want = a - b, a + b.scale(field.neg(field.one))
    assert list(got.terms.items()) == list(want.terms.items())
    assert [type(c) for c in got.terms.values()] == [type(c) for c in want.terms.values()]


@settings(database=None, derandomize=True, max_examples=120, deadline=None)
@given(st.sampled_from([QQ, F5, PrimeField(32003)]), st.integers(1, 6), st.integers(1, 6),
       st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(-9, 9),
                          st.sampled_from([1, 1, 2, 3])), max_size=20),
       st.lists(st.lists(st.integers(-4, 4), min_size=6, max_size=6), min_size=1, max_size=3),
       st.lists(st.lists(st.integers(-4, 4), min_size=6, max_size=6), max_size=3))
def test_one_elimination_solves_like_the_augmented_reference(field, nrows, ncols, draws,
                                                              xs, raw):
    # solve_affine_system and solve_many eliminate A once and replay its row
    # operations on each right-hand side; the reference eliminates [A | b]
    # afresh.  The right-hand sides are images A x (consistent), raw draws
    # (mostly inconsistent), zero, and an image with a unit added in a row
    # that no column touches (inconsistent)
    entries = {}
    for r, c, num, den in draws:
        if r < nrows and c < ncols:
            entries[(r, c)] = field(Fraction(num, den))
    A = Matrix(field, nrows, ncols, entries)
    rhs = [apply(A, [field(v) for v in x[:ncols]]) for x in xs]
    rhs += [[field(v) for v in b[:nrows]] for b in raw]
    rhs.append([field.zero] * nrows)
    untouched = sorted(set(range(nrows)) - {r for r, _ in A.entries})
    if untouched:
        b = list(rhs[0])
        b[untouched[0]] = field.one
        rhs.append(b)
        assert solve_affine_system(A, b) is None
    want = [solve_affine_reference(A, b) for b in rhs]
    assert [solve_affine_system(A, b) for b in rhs] == want
    assert solve_many(A, rhs) == [None if sol is None else sol.particular for sol in want]
    assert want[len(xs) + len(raw)] is not None  # the zero right-hand side
