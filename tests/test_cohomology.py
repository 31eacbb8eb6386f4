"""Cochains, coboundaries, cocycle spaces, class comparison, cup products."""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koszulgerst import cohomology
from koszulgerst.cohomology import (Cochain, coboundary, cocycle_space, cup_product,
                                    is_coboundary, same_class)
from koszulgerst.errors import CochainError, UnboundedComputation
from koszulgerst.fields import QQ, PrimeField
from koszulgerst.presets import (family_table1, family_table2,
                                 family_named_cocycles, load_complex, short_goldens)
from koszulgerst.quiver import Path, PathVector
import cochain_reference


def test_short_cocycles(short8):
    g = short_goldens(short8)
    assert coboundary(g["chi"]).is_zero()
    assert coboundary(g["theta"]).is_zero()
    assert coboundary(Cochain.zero(short8, 1)).is_zero()


def test_family_degree2_cocycle(family8):
    etabar = family_named_cocycles(family8)["etabar"]
    assert coboundary(etabar).is_zero()


def test_cochain_values_must_sit_between_generator_vertices(family8):
    # slot 2 of degree 1 is the arrow 1 -> 2; a loop value is rejected
    bad = [PathVector.zero(family8.field), PathVector.zero(family8.field),
           PathVector.single(family8.field, Path(0, (0,)))]
    with pytest.raises(ValueError):
        Cochain.from_values(family8, 1, bad)


def test_cochains_of_other_degree_or_complex_do_not_combine(family8, family8_f5):
    from koszulgerst.errors import DimensionMismatch
    eta = family_named_cocycles(family8)["etabar"]
    with pytest.raises(DimensionMismatch):
        eta + Cochain.zero(family8, 1)
    with pytest.raises(DimensionMismatch):
        eta - Cochain.zero(family8_f5, 2)
    assert (eta - eta).is_zero()


def test_table_vectors_lie_in_kernel(family8):
    for c in family_table1(family8):
        assert coboundary(c).is_zero()
    for c in family_table2(family8):
        assert coboundary(c).is_zero()


def test_cocycle_space_dimensions(family8):
    z1 = cocycle_space(family8, 1)
    z2 = cocycle_space(family8, 2)
    assert len(z1.cocycles) == 6 and z1.hh_dim == 4
    assert len(z2.cocycles) == 9 and z2.hh_dim == 5
    for c in z1.cocycles + z2.cocycles:
        assert coboundary(c).is_zero()
    for c in z1.coboundaries + z2.coboundaries:
        assert is_coboundary(c) is not None


def test_short_requires_internal_degree(short8):
    with pytest.raises(UnboundedComputation):
        cocycle_space(short8, 1)
    sliced = cocycle_space(short8, 1, 2)
    assert sliced.cocycles
    assert all(c.internal_degrees() <= {2} for c in sliced.cocycles)
    for c in sliced.cocycles:
        assert coboundary(c).is_zero()


def test_degree_zero_cocycles(short8, family8):
    # the sum-of-vertices cochain is central, hence a 0-cocycle
    for kx in (short8, family8):
        ident = Cochain.from_values(kx, 0, [PathVector.single(QQ, kx.quiver.vertex_path(v))
                                            for v in range(kx.quiver.num_vertices)])
        assert coboundary(ident).is_zero()
    z0 = cocycle_space(short8, 0, 0)
    assert len(z0.cocycles) == 1
    assert z0.coboundaries == []


def test_is_coboundary_roundtrip(family8, rng):
    # d* of anything is a coboundary, and the witness verifies exactly
    words = {ell: {} for ell in (0, 1, 2)}
    for _ in range(10):
        vals = []
        for i in range(family8.count(1)):
            o, t = family8.cobasis.o(1, i)
            pool = [w for L in (0, 1, 2) for w in family8.rs.basis_words(L, o, t)]
            terms = {}
            if pool and rng.random() < 0.8:
                w = rng.choice(pool)
                terms[w] = QQ(rng.randrange(-3, 4))
            vals.append(PathVector(QQ, terms))
        xi = Cochain.from_values(family8, 1, vals)
        eta = coboundary(xi)
        witness = is_coboundary(eta)
        assert witness is not None
        assert coboundary(witness) == eta


def test_is_coboundary_negative_and_zero(family8):
    etabar = family_named_cocycles(family8)["etabar"]
    assert is_coboundary(etabar) is None
    witness = is_coboundary(Cochain.zero(family8, 2))
    assert witness is not None and witness.is_zero()


def test_same_class(family8):
    z2 = cocycle_space(family8, 2)
    b = z2.coboundaries[0]
    etabar = family_named_cocycles(family8)["etabar"]
    assert same_class(etabar, etabar + b)
    assert not same_class(etabar, Cochain.zero(family8, 2))


def test_cup_with_identity_is_identity(family8, short8):
    for kx in (family8, short8):
        ident = Cochain.from_values(kx, 0, [PathVector.single(QQ, kx.quiver.vertex_path(v))
                                            for v in range(kx.quiver.num_vertices)])
        for eta in (family_named_cocycles(kx)["eta"] if kx is family8
                    else short_goldens(kx)["chi"],):
            assert cup_product(ident, eta) == eta
            assert cup_product(eta, ident) == eta


def test_short_chi_cup_chi_vanishes(short8):
    chi = short_goldens(short8)["chi"]
    assert cup_product(chi, chi).is_zero()


def test_cup_of_cocycles_is_cocycle(family8):
    t1 = family_table1(family8)
    t2 = family_table2(family8)
    for eta in t2:
        for theta in t2:
            assert coboundary(cup_product(eta, theta)).is_zero()
    for eta in t2[:3]:
        for theta in t1[:3]:
            assert coboundary(cup_product(eta, theta)).is_zero()


def test_cup_with_coboundary_is_coboundary(family8):
    z1 = cocycle_space(family8, 1)
    b = z1.coboundaries[0]
    eta = family_named_cocycles(family8)["eta"]
    assert is_coboundary(cup_product(eta, b)) is not None
    assert is_coboundary(cup_product(b, eta)) is not None


def test_cup_associative_at_chain_level(family8, short8, rng):
    t1 = family_table1(family8)
    t2 = family_table2(family8)
    triples = [(a, b, c) for a in t2 for b in t2 for c in t2[:2]]
    triples += [(rng.choice(t2), rng.choice(t1), rng.choice(t2)) for _ in range(6)]
    for a, b, c in triples:
        assert cup_product(cup_product(a, b), c) == cup_product(a, cup_product(b, c))
    g = short_goldens(short8)
    chi, theta = g["chi"], g["theta"]
    assert (cup_product(cup_product(chi, theta), theta)
            == cup_product(chi, cup_product(theta, theta)))


def test_cup_graded_commutative_up_to_coboundary(family8, rng):
    t1 = family_table1(family8)
    t2 = family_table2(family8)
    pairs = [(a, b) for a in t2 for b in t2]
    pairs += [(a, b) for a in t2 for b in t1]
    pairs += [(rng.choice(t1), rng.choice(t1)) for _ in range(10)]
    for eta, theta in pairs:
        n, m = eta.degree, theta.degree
        sign = QQ(1) if (n * m) % 2 == 0 else QQ(-1)
        lhs = cup_product(eta, theta)
        rhs = cup_product(theta, eta).scale(sign)
        assert same_class(lhs, rhs)


def test_coboundary_squared_zero(family8, rng):
    for _ in range(10):
        vals = []
        for i in range(family8.count(1)):
            o, t = family8.cobasis.o(1, i)
            pool = [w for L in (0, 1, 2) for w in family8.rs.basis_words(L, o, t)]
            terms = {w: QQ(rng.randrange(-2, 3)) for w in rng.sample(pool, min(2, len(pool)))}
            vals.append(PathVector(QQ, terms))
        eta = Cochain.from_values(family8, 1, vals)
        assert coboundary(coboundary(eta)).is_zero()


def test_cup_internal_degree_additive(family8):
    g = family_named_cocycles(family8)
    eta, chi = g["eta"], g["chi"]  # internal degrees 1 and 2
    prod = cup_product(eta, chi)
    assert prod.internal_degrees() <= {3}
    prod = cup_product(eta, eta)
    assert prod.internal_degrees() <= {2}


def test_is_coboundary_refuses_a_term_outside_the_slice(family8):
    # Cochain(kx, n, terms) trusts its terms; a term between other vertices
    # has no coordinate row, and dropping it would answer for another cochain
    q = family8.quiver
    o, t = family8.cobasis.o(2, 0)
    arrow = next(a for a in range(q.num_arrows) if (q.arrow_o[a], q.arrow_t[a]) != (o, t))
    eta = Cochain(family8, 2, {(0, q.arrow_path(arrow)): family8.field.one})
    with pytest.raises(CochainError, match="outside the coordinate slice"):
        is_coboundary(eta)


@lru_cache(maxsize=None)
def _reference_complex(name):
    """(complex, kQ paths of length <= 2 by (origin, target)) for a test case."""
    kx = {"family-Q": lambda: load_complex("family", QQ, 4, q=1),
          "family-F5": lambda: load_complex("family", PrimeField(5), 4, q=-1),
          "short": lambda: load_complex("short", QQ, 4)}[name]()
    q = kx.quiver
    paths = [q.vertex_path(v) for v in range(q.num_vertices)]
    paths += [q.arrow_path(a) for a in range(q.num_arrows)]
    paths += [Path(q.arrow_o[a], (a, b)) for a in range(q.num_arrows)
              for b in range(q.num_arrows) if q.arrow_t[a] == q.arrow_o[b]]
    pools = {}
    for p in paths:
        pools.setdefault((p.o, q.path_target(p)), []).append(p)
    return kx, pools


def _random_values(data, kx, pools, n):
    """One value per slot of degree n: up to three pinned kQ paths, normal or
    not, with small coefficients."""
    f = kx.field
    values = []
    for i in range(kx.count(n)):
        pool = pools.get(kx.cobasis.o(n, i), [])
        terms = {}
        if pool:
            for p, c in data.draw(st.lists(st.tuples(st.sampled_from(pool),
                                                     st.integers(-3, 3)), max_size=3)):
                terms[p] = terms.get(p, 0) + f(c)
        values.append(PathVector(f, terms))
    return values


def _spelled(cochain):
    """Degree and values of a cochain, terms in their stored order, and its text."""
    return (cochain.degree, [list(v.terms.items()) for v in cochain.values],
            cochain.format())


@settings(database=None, derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from(["family-Q", "family-F5", "short"]), st.integers(0, 2),
       st.integers(0, 2), st.integers(-3, 3), st.data())
def test_cochains_match_the_list_reference(name, n, m, c, data):
    # a (slot, word)-keyed cochain and the parent's list of PathVectors agree
    # value for value, each slot's terms in the same order, through the
    # arithmetic, the graded pieces, d*, cup products and coboundary witnesses
    kx, pools = _reference_complex(name)
    c = kx.field(c)
    a, b, theta = (_random_values(data, kx, pools, k) for k in (n, n, m))
    degrees_and_values = ((n, a), (n, b), (m, theta))
    got = [Cochain.from_values(kx, k, v) for k, v in degrees_and_values]
    want = [cochain_reference.ReferenceCochain(kx, k, v) for k, v in degrees_and_values]

    def cases(x, y, z, coboundary, cup_product, is_coboundary):
        out = [x, y, z, x + y, x - y, x.scale(c), -x, coboundary(x), cup_product(x, z)]
        out += [x.graded_piece(ell) for ell in range(3)]
        out += [is_coboundary(x), is_coboundary(coboundary(y)), is_coboundary(x - x)]
        return out

    got = cases(*got, coboundary, cup_product, is_coboundary)
    want = cases(*want, cochain_reference.coboundary, cochain_reference.cup_product,
                 cochain_reference.is_coboundary)
    assert [None if x is None else _spelled(x) for x in got] == \
        [None if x is None else _spelled(x) for x in want]
    assert got[-2] is not None


def test_coboundary_slices_built_once_per_complex(monkeypatch):
    # cocycle_space(2) reads d* on C^2 and C^1 per internal degree,
    # cocycle_space(1) on C^1 again and C^0, and is_coboundary on C^1 and C^0
    # again: each (n, ell) slice is built and eliminated once
    kx = load_complex("family", QQ, 8, q=1)
    assert kx._coboundary_slices == {}
    builds = []

    def counted_elimination(field, columns):
        builds.append(len(columns))
        return elimination(field, columns)

    elimination = cohomology.Elimination
    monkeypatch.setattr(cohomology, "Elimination", counted_elimination)
    z2, z1 = cocycle_space(kx, 2), cocycle_space(kx, 1)
    slices = dict(kx._coboundary_slices)
    assert len(builds) == len(slices) == 8
    cocycles = z2.cocycles + z1.cocycles
    for _ in range(3):
        assert [is_coboundary(eta) is not None for eta in cocycles] == \
            [same_class(eta, Cochain.zero(kx, eta.degree)) for eta in cocycles]
    assert any(is_coboundary(eta) is None for eta in cocycles)
    assert all(is_coboundary(b) is not None for b in z2.coboundaries + z1.coboundaries)
    assert len(builds) == 8
    assert kx._coboundary_slices.keys() == slices.keys()
    assert all(kx._coboundary_slices[key] is cut for key, cut in slices.items())
