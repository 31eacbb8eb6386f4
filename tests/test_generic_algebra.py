"""End-to-end runs on algebras with no golden data: everything is built by
the generic span-intersection construction and checked by the structural
identities, so these guard the non-preset code paths."""

import pytest

from koszulgerst.algfile import parse_presentation
from koszulgerst.bracket import oracle_compare
from koszulgerst.cohomology import cocycle_space
from koszulgerst.fields import QQ, PrimeField
from koszulgerst.lifting import solve_lifting, verify_lifting
from koszulgerst.presets import load_complex
from koszulgerst.quiver import Path, PathVector, QuadraticPresentation, Quiver
from koszulgerst.resolution import KoszulComplex

from linalg_reference import single


def zigzag_complex(N=6):
    """1 <-> 2 with both composites zero; four dimensional, Koszul."""
    q = Quiver(["1", "2"], [("u", "1", "2"), ("v", "2", "1")])
    uv = single(QQ, Path(0, (0, 1)))
    vu = single(QQ, Path(1, (1, 0)))
    return KoszulComplex(QuadraticPresentation(q, [uv, vu], field=QQ), N)


def test_zigzag_resolution_and_cohomology():
    kx = zigzag_complex()
    assert [kx.count(n) for n in range(7)] == [2] * 7
    assert kx.verify_resolution().ok
    z1 = cocycle_space(kx, 1)
    z2 = cocycle_space(kx, 2)
    assert z1.hh_dim == 1 and z2.hh_dim == 1
    for c in z1.cocycles + z2.cocycles:
        lifting = solve_lifting(kx, c, 3)
        assert verify_lifting(kx, c, lifting, 3) == []


def test_zigzag_oracle():
    kx = zigzag_complex()
    report = oracle_compare(kx, 1, 1)
    assert report.ok and report.pairs


def test_polynomial_ring_tower_is_binomial():
    # three commuting variables: the generator tower must match the exterior
    # algebra, one generator per variable subset, and stop after degree 3
    q = Quiver(["1"], [("x", "1", "1"), ("y", "1", "1"), ("z", "1", "1")])

    def pv(*terms):
        return PathVector(QQ, {Path(0, tuple(arrows)): QQ(c) for c, arrows in terms})

    rels = [pv((1, (0, 1)), (-1, (1, 0))),
            pv((1, (0, 2)), (-1, (2, 0))),
            pv((1, (1, 2)), (-1, (2, 1)))]
    kx = KoszulComplex(QuadraticPresentation(q, rels, field=QQ), 5)
    assert [kx.count(n) for n in range(6)] == [1, 3, 3, 1, 0, 0]
    assert kx.verify_resolution().ok


def test_directed_tree_resolution_terminates():
    # 1 -> 2 -> 3 with the composite killed: global dimension two, so the
    # generator tower stops and empty degrees flow through every check
    q = Quiver(["1", "2", "3"], [("u", "1", "2"), ("v", "2", "3")])
    uv = single(QQ, Path(0, (0, 1)))
    kx = KoszulComplex(QuadraticPresentation(q, [uv], field=QQ), 5)
    assert [kx.count(n) for n in range(6)] == [3, 2, 1, 0, 0, 0]
    assert kx.verify_resolution().ok
    z1 = cocycle_space(kx, 1)
    assert z1.hh_dim == 0


def elimination_values(cache, elimination):
    """The scalars of the recorded row operations (inverses and factors) and
    the nonzero kernel basis entries (the basis vectors are dense) of a
    cached Elimination; reading the kernel computes it."""
    for _, _, inv, updates in elimination.operations:
        if inv is not None:
            yield f"{cache} operations", inv
        yield from ((f"{cache} operations", c) for _, c in updates)
    for vec in elimination.nullspace:
        yield from ((f"{cache} kernel", c) for c in vec if c != 0)


def cached_values(kx):
    """(cache, value) for every field value a complex, its cobasis and the
    rewriting systems of A and A^! hold in their caches, the iota index of
    restrict_along_iota included."""
    cm, cb, rs = kx.comult, kx.cobasis, kx.rs
    for rows in cm._cache.values():
        for row in rows:
            yield from (("comult._cache", c) for c in row.values())
    for action in cb._right.values():
        for by_arrow in action:
            for terms in by_arrow.values():
                yield from (("cobasis._right", c) for _, c in terms)
    for level in cb._levels:
        for codes in level:
            yield from (("cobasis._levels", c) for c in codes.values())
    for words in kx._iota_index.values():
        for pairs in words.values():
            yield from (("_iota_index", c) for _, c in pairs)
    for terms in kx._diag_cache.values():
        yield from (("_diag_cache", t.coeff) for t in terms)
    for x in kx._diff_cache.values():
        yield from (("_diff_cache", c) for c in x.terms.values())
    for system in kx._lifting_systems.values():
        yield from elimination_values("_lifting_systems", system.elimination)
    for cut in kx._coboundary_slices.values():
        yield from elimination_values("_coboundary_slices", cut.elimination)
        for x in cut.images:
            yield from (("_coboundary_slices images", c) for c in x.terms.values())
    for name, system in (("rs", rs), ("cobasis.dual", cb.dual)):
        for x in system._products.values():
            yield from ((f"{name}._products", c) for c in x.terms.values())
        for level in system._times:
            for by_arrow in level:
                for terms in by_arrow.values():
                    yield from ((f"{name}._times", c) for _, c in terms)


@pytest.mark.parametrize("make, dual_caches", [
    (lambda: load_complex("family", PrimeField(5), 4, q=-1), set()),
    (lambda: KoszulComplex(parse_presentation(
        "field F32003\nvertex 1\narrow x 1 1\narrow y 1 1\narrow z 1 1\n"
        "order x > y > z\nparam qxy = 17\nparam qxz = 2024\nparam qyz = 31999\n"
        "relation x.x\nrelation y.y\nrelation z.z\nrelation y.x + qxy*x.y\n"
        "relation z.x + qxz*x.z\nrelation z.y + qyz*y.z\n"), 3),
     {"cobasis.dual._products"}),
], ids=["family-q=-1-F5", "exterior-F32003"])
def test_no_unreduced_value_escapes_into_a_cache(make, dual_caches):
    # loops accumulate F_p values unreduced; the constructors and the
    # explicit canon calls must reduce every one before it is stored.  A^!
    # multiplies no words after its build: its word products are only those
    # of the confluence check, which the family's rules leave empty
    kx = make()
    built = dict(kx.cobasis.dual._products)
    p = kx.field.p
    assert kx.verify_resolution().ok
    cocycles = cocycle_space(kx, 1).cocycles
    lifting = solve_lifting(kx, cocycles[-1], kx.N)
    assert verify_lifting(kx, cocycles[-1], lifting, kx.N) == []
    assert oracle_compare(kx, 1, 1).ok
    seen, bad = set(), []
    for cache, c in cached_values(kx):
        seen.add(cache)
        if type(c) is not int or not 0 < c < p:
            bad.append((cache, c))
    assert bad == []
    assert seen == {"comult._cache", "cobasis._right",
                    "cobasis._levels", "_iota_index", "_diag_cache",
                    "_diff_cache", "_lifting_systems operations",
                    "_lifting_systems kernel",
                    "_coboundary_slices operations", "_coboundary_slices kernel",
                    "_coboundary_slices images", "rs._products",
                    "rs._times", "cobasis.dual._times"} | dual_caches
    assert kx.cobasis.dual._products == built
