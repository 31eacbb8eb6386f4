"""Generator towers f^n_i and their comultiplicative scalars.

The generic intersection construction is compared against the bundled
closed-form towers, and the scalar tables are checked both against the
defining identity in kQ (by direct expansion) and against independently
coded closed formulas for the two stock algebras.
"""

import pytest

from koszulgerst.errors import InconsistentBasis
from koszulgerst.fields import QQ, PrimeField
from koszulgerst.koszul import ComultTable, KoszulCobasis, build_koszul_basis
from koszulgerst.linalg import echelon_basis
from koszulgerst.presets import (family_cobasis, load_complex, load_presentation,
                                 short_cobasis)
from koszulgerst.quiver import Path, PathVector, QuadraticPresentation, Quiver, free_multiply
from koszulgerst.rewriting import build_rewrite_system


def test_short_tower_closed_form(short8):
    cb = short8.cobasis
    assert [cb.count(n) for n in range(9)] == [1] + [2] * 8
    for n in range(1, 9):
        assert cb.f(n, 0) == PathVector.single(QQ, Path(0, (0,) * n))
        expected = {Path(0, (0,) * i + (1,) + (0,) * (n - 1 - i)): QQ(1)
                    for i in range(n)}
        assert cb.f(n, 1) == PathVector(QQ, expected)


def test_family_degree3_recursion(family8):
    cb = family8.cobasis
    assert [cb.count(n) for n in range(9)] == [2, 3] + [n + 2 for n in range(2, 9)]
    q = family8.quiver
    a = PathVector.single(QQ, Path(0, (0,)))
    b = PathVector.single(QQ, Path(0, (1,)))
    c = PathVector.single(QQ, Path(0, (2,)))
    # q = 1: f^3_s = f^2_{s-1} b + (-1)^s f^2_s a between the pure powers
    assert cb.f(3, 0) == free_multiply(q, free_multiply(q, a, a), a)
    assert cb.f(3, 1) == free_multiply(q, cb.f(2, 0), b) - free_multiply(q, cb.f(2, 1), a)
    assert cb.f(3, 2) == free_multiply(q, cb.f(2, 1), b) + free_multiply(q, cb.f(2, 2), a)
    assert cb.f(3, 3) == free_multiply(q, free_multiply(q, b, b), b)
    assert cb.f(3, 4) == free_multiply(q, free_multiply(q, a, a), c)


@pytest.mark.parametrize("name,q", [("short", None), ("family", 1),
                                    ("family", -1), ("family", 2)])
def test_generic_intersection_matches_golden_tower(name, q):
    pres = load_presentation(name, QQ, q=q)
    rs = build_rewrite_system(pres)
    generic = build_koszul_basis(pres, rs, 6)
    golden = short_cobasis(pres, 6) if name == "short" else family_cobasis(pres, 6)
    for n in range(7):
        assert generic.count(n) == golden.count(n)
        key = pres.order_key
        canon_generic = echelon_basis(generic.elements[n], key) if n else None
        canon_golden = echelon_basis(golden.elements[n], key) if n else None
        if n:
            as_set = lambda vs: {frozenset(v.terms.items()) for v in vs}
            assert as_set(canon_generic) == as_set(canon_golden)


def test_no_relations_tower_terminates():
    quiver = Quiver(["1"], [("x", "1", "1")])
    pres = QuadraticPresentation(quiver, [], field=QQ)
    rs = build_rewrite_system(pres)
    cb = build_koszul_basis(pres, rs, 4)
    assert cb.count(0) == 1 and cb.count(1) == 1
    assert cb.count(2) == 0 and cb.count(3) == 0 and cb.count(4) == 0


def test_short_scalars_all_ones(short8):
    # c_{00}(n,0,r) = c_{01}(n,1,r) = c_{10}(n,1,r) = 1, everything else 0
    for n in range(1, 7):
        for r in range(n + 1):
            assert short8.c(n, 0, r) == {(0, 0): QQ(1)}
            if r == 0:
                expected = {(0, 1): QQ(1)}
            elif r == n:
                expected = {(1, 0): QQ(1)}
            else:
                expected = {(0, 1): QQ(1), (1, 0): QQ(1)}
            assert short8.c(n, 1, r) == expected


@pytest.mark.parametrize("qval", [1, 2])
def test_family_scalars_match_power_formula(qval):
    # c_{j,s-j}(n,s,w) = (-q)^{j(n-s+j-w)} for 0 < s < n, within index bounds
    kx = load_complex("family", QQ, 6, q=qval)
    minus_q = QQ(-qval)
    for n in range(2, 7):
        for s in range(1, n):
            for w in range(n + 1):
                expected = {}
                for j in range(max(0, s + w - n), min(w, s) + 1):
                    expected[(j, s - j)] = minus_q ** (j * (n - s + j - w))
                assert kx.c(n, s, w) == expected


def test_boundary_scalars_are_kronecker(family8):
    cb = family8.cobasis
    for n in range(1, 6):
        for i in range(cb.count(n)):
            assert family8.c(n, i, 0) == {(cb.origin(n, i), i): QQ(1)}
            assert family8.c(n, i, n) == {(i, cb.target(n, i)): QQ(1)}


@pytest.mark.parametrize("name,q", [("short", None), ("family", 2)])
def test_defining_identity_by_expansion(name, q):
    kx = load_complex(name, QQ, 5, q=q)
    quiver = kx.quiver
    for n in range(6):
        for r in range(n + 1):
            for i in range(kx.count(n)):
                acc = PathVector.zero(QQ)
                for (p, qq), c in kx.c(n, i, r).items():
                    acc = acc + free_multiply(
                        quiver, kx.cobasis.f(r, p), kx.cobasis.f(n - r, qq)).scale(c)
                assert acc == kx.cobasis.f(n, i)


def test_counts_track_presentation(family8, short8):
    assert family8.count(0) == family8.quiver.num_vertices
    assert family8.count(1) == family8.quiver.num_arrows
    assert family8.count(2) == len(family8.presentation.relations)
    assert short8.count(2) == len(short8.presentation.relations)


def test_inconsistent_basis_detected(short8):
    # y^3 is not in f^1 . span(relations), so no scalar row can exist for it
    pres = short8.presentation
    levels = [list(level) for level in short8.cobasis.elements[:4]]
    levels[3][0] = PathVector.single(QQ, Path(0, (1, 1, 1)))
    broken = KoszulCobasis(pres.quiver, levels)
    table = ComultTable(pres.quiver, broken, QQ)
    with pytest.raises(InconsistentBasis):
        table.scalars(3, 0, 1)


@pytest.mark.parametrize("name", ["short", "family"])
def test_scaled_word_is_caught_at_every_split_it_leaves(name):
    # Scaling the coefficient of one word w = u v of f^n_i adds a multiple of
    # the monomial w, so the row at split r still re-expands exactly iff u
    # and v lie in W_r and W_{n-r}.  A monomial lies in a reduced echelon
    # span only as a one-word generator, so every other split must raise.
    # In degree 2 both halves are arrows, so only degrees 3 and 4 can miss.
    kx = (load_complex("short", QQ, 4) if name == "short"
          else load_complex("family", PrimeField(5), 4, q=-1))
    f, q, cb = kx.field, kx.quiver, kx.cobasis
    monomials = {next(iter(g.terms)) for level in cb.elements for g in level
                 if len(g.terms) == 1}
    caught_everywhere = set()
    for n in range(2, 5):
        for i in range(cb.count(n)):
            for w in cb.f(n, i).terms:
                levels = [list(level) for level in cb.elements]
                terms = dict(levels[n][i].terms)
                terms[w] = f.mul(f(2), terms[w])
                levels[n][i] = PathVector(f, terms)
                table = ComultTable(q, KoszulCobasis(q, levels), f)
                caught = []
                for r in range(1, n):
                    head = Path(w.o, w.arrows[:r])
                    tail = Path(q.path_target(head), w.arrows[r:])
                    try:
                        table.scalars(n, i, r)
                        caught.append(False)
                    except InconsistentBasis:
                        caught.append(True)
                    assert caught[-1] == (head not in monomials or tail not in monomials)
                if all(caught):
                    caught_everywhere.add(n)
    assert caught_everywhere == {3, 4}
