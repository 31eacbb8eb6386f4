"""The exact-arithmetic hot path: memoised products, scalars from A^!, int units.

`RewriteSystem.multiply` is checked against reducing the free product by
leftmost rewriting (tower_reference.py), and the comultiplicative scalars,
products in the quadratic dual A^!, against one general `solve_many` per
slice, kept here as an independent reference, on the two presets and on
generated quantum exterior algebras, over Q and F5.
"""

import random
from fractions import Fraction

import pytest

from koszulgerst.errors import InconsistentBasis
from koszulgerst.fields import QQ, PrimeField
from koszulgerst.linalg import Matrix, solve_many
from koszulgerst.presets import load_complex
from koszulgerst.quiver import Path, PathVector, QuadraticPresentation, Quiver, free_multiply
from koszulgerst.resolution import KoszulComplex

from tower_reference import PivotComultTable, ReferenceCobasis, leftmost_normal_form

F5 = PrimeField(5)
N = 6


def quantum_exterior(field, names, rng):
    """x_i^2 = 0 and x_j x_i + q_ij x_i x_j = 0 (i < j), q_ij random nonzero."""
    quiver = Quiver(["1"], [(x, "1", "1") for x in names])
    relations = [PathVector.single(field, Path(0, (i, i))) for i in range(len(names))]
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            q = field(rng.choice([c for c in range(-9, 10) if field(c) != field.zero]))
            relations.append(PathVector(field, {Path(0, (j, i)): field.one,
                                                Path(0, (i, j)): q}))
    return KoszulComplex(QuadraticPresentation(quiver, relations, field=field), N)


ALGEBRAS = {
    "short": lambda field, rng: load_complex("short", field, N),
    "family q=1": lambda field, rng: load_complex("family", field, N, q=1),
    "family q=-1": lambda field, rng: load_complex("family", field, N, q=-1),
    "family q=2": lambda field, rng: load_complex("family", field, N, q=2),
    "exterior k=3": lambda field, rng: quantum_exterior(field, "xyz", rng),
}
CASES = [(name, field) for name in ALGEBRAS for field in (QQ, F5)]


@pytest.fixture(scope="module", params=CASES, ids=lambda case: f"{case[0]}/{case[1].name}")
def complex_case(request):
    name, field = request.param
    return ALGEBRAS[name](field, random.Random(f"{name}/{field.name}"))


def random_path(quiver, rng, length):
    """A composable path of kQ, normal or not."""
    v = rng.randrange(quiver.num_vertices)
    path = Path(v, ())
    for _ in range(length):
        out = [a for a in range(quiver.num_arrows) if quiver.arrow_o[a] == quiver.path_target(path)]
        if not out:
            break
        path = Path(v, path.arrows + (rng.choice(out),))
    return path


def random_vector(kx, rng, terms):
    f = kx.field
    coeffs = [f(c) for c in (1, 1, -1, 2, -3)] + [f(Fraction(3, 2)), f(Fraction(-5, 7))]
    return PathVector(f, {random_path(kx.quiver, rng, rng.randrange(4)): rng.choice(coeffs)
                          for _ in range(terms)})


def test_multiply_is_the_reduced_free_product(complex_case, rng):
    kx = complex_case
    for _ in range(60):
        a = random_vector(kx, rng, rng.randrange(1, 5))
        b = random_vector(kx, rng, rng.randrange(1, 5))
        expected = leftmost_normal_form(kx.rs, free_multiply(kx.quiver, a, b))
        assert kx.rs.multiply(a, b) == expected
        assert kx.rs.multiply(a, b) == expected  # again, now from the memo


def test_scaling_a_product_leaves_the_memo_intact():
    kx = load_complex("short", QQ, 2)
    x = PathVector.single(QQ, Path(0, (0,)))
    y = PathVector.single(QQ, Path(0, (1,)))
    prod = kx.rs.multiply(x, y)
    assert prod == PathVector(QQ, {Path(0, (1, 0)): -1})  # xy = -yx
    for derived in (prod.scale(3), -prod, prod + prod, prod - prod,
                    kx.rs.multiply(x.scale(2), y)):
        assert derived is not prod
    again = kx.rs.multiply(x, y)
    assert again == PathVector(QQ, {Path(0, (1, 0)): -1})


def solve_many_scalars(kx, n, r):
    """Rows {(p, q): c_pq(n, i, r)} of slice (n, r) from one general solve."""
    f, q, cb = kx.field, kx.quiver, kx.cobasis
    cols = [(p, qq, prod) for p in range(cb.count(r)) for qq in range(cb.count(n - r))
            if not (prod := free_multiply(q, cb.f(r, p), cb.f(n - r, qq))).is_zero()]
    targets = [cb.f(n, i) for i in range(cb.count(n))]
    support = {}
    for vec in [prod for _, _, prod in cols] + targets:
        for path in vec.terms:
            support.setdefault(path, len(support))
    A = Matrix(f, len(support), len(cols),
               {(support[path], j): c for j, (_, _, prod) in enumerate(cols)
                for path, c in prod.terms.items()})
    rhs = []
    for t in targets:
        b = [f.zero] * len(support)
        for path, c in t.terms.items():
            b[support[path]] = c
        rhs.append(b)
    rows = []
    for sol in solve_many(A, rhs):
        assert sol is not None
        rows.append({(p, qq): x for (p, qq, _), x in zip(cols, sol) if x != f.zero})
    return rows


def test_scalars_match_a_solve_many_reference(complex_case):
    kx = complex_case
    for n in range(N + 1):
        for r in range(n + 1):
            reference = solve_many_scalars(kx, n, r)
            for i, row in enumerate(reference):
                # same values, and the same key order the diagonal lists
                assert list(kx.c(n, i, r).items()) == list(row.items())


def test_dependent_level_raises_inconsistent_basis(short8):
    # the pivot-coordinate reference of tower_reference.py: the package's
    # generators are a dual basis and cannot be dependent
    levels = [list(level) for level in short8.cobasis.elements[:4]]
    levels[2] = [levels[2][0], levels[2][1], levels[2][1].scale(QQ(2))]
    table = PivotComultTable(short8.quiver, ReferenceCobasis(short8.quiver, levels), QQ)
    with pytest.raises(InconsistentBasis, match="linearly dependent"):
        table.scalars(2, 0, 0)
    with pytest.raises(InconsistentBasis):
        table.scalars(3, 0, 1)


def test_rational_units_are_ints():
    assert type(QQ.zero) is int and type(QQ.one) is int
    quiver = Quiver(["1"], [("x", "1", "1"), ("y", "1", "1")])
    x, y = Path(0, (0,)), Path(0, (1,))
    mixed = PathVector(QQ, {x: QQ.one, y: Fraction(-3, 2)})
    fractions = PathVector(QQ, {x: Fraction(1), y: Fraction(-3, 2)})
    assert mixed == fractions
    assert mixed.format(quiver) == fractions.format(quiver) == "x - 3/2*y"
    for value in (0, 1, -1, 7):
        assert QQ.format(value) == QQ.format(Fraction(value))
    assert PathVector(QQ, {x: Fraction(0)}).is_zero()
