"""Brackets by lifting, by derivation operator, by bar-side brute force."""

import functools
from unittest import mock

import pytest

from koszulgerst import cohomology
from koszulgerst.algfile import parse_cochain
from koszulgerst.bracket import (_circle_into, bar_circle_bracket, bar_cocycle_basis,
                                 bar_tuples, bracket_via_derivation, bracket_via_lifting,
                                 maurer_cartan_check, oracle_compare, restrict_along_iota)
from koszulgerst.cohomology import Cochain, coboundary, cocycle_space, same_class
from koszulgerst.errors import (CharacteristicTwo, CochainError, DimensionMismatch,
                                InfiniteDimensional)
from koszulgerst.fields import QQ, PrimeField
from koszulgerst.lifting import derivation_lift, solve_lifting
from koszulgerst.linalg import GradedVector, Matrix, nullspace_basis
from koszulgerst.presets import (family_named_cocycles, family_table1, family_table2,
                                 family_table3, load_complex, short_goldens)
from koszulgerst.quiver import Path, PathVector
from koszulgerst.resolution import BimoduleElement
from family_goldens import family_psi_chi, family_psi_chibar, family_psi_eta, family_psi_etabar
from test_generic_algebra import zigzag_complex
import bracket_reference
from linalg_reference import add, mul


def golden_liftings(kx):
    return {"eta": family_psi_eta(kx, 3), "chi": family_psi_chi(kx, 3),
            "etabar": family_psi_etabar(kx), "chibar": family_psi_chibar(kx)}


def test_table3_exact_with_golden_liftings(family8):
    named = family_named_cocycles(family8)
    lifts = golden_liftings(family8)
    for (a, b), expected in family_table3(family8, named).items():
        got = bracket_via_lifting(family8, named[a], named[b], lifts[a], lifts[b])
        assert got == expected, (a, b, got.format())


def test_table3_class_level_with_solver_liftings(family8):
    named = family_named_cocycles(family8)
    lifts = {name: solve_lifting(family8, c, 3) for name, c in named.items()
             if name != "theta"}
    exact = 0
    for (a, b), expected in family_table3(family8, named).items():
        got = bracket_via_lifting(family8, named[a], named[b], lifts[a], lifts[b])
        assert same_class(got, expected), (a, b)
        exact += got == expected
    assert exact == 16  # the canonical solver reproduces every representative


def test_remark_slot_value(family8):
    named = family_named_cocycles(family8)
    lifts = golden_liftings(family8)
    got = bracket_via_lifting(family8, named["etabar"], named["eta"],
                              lifts["etabar"], lifts["eta"])
    a = PathVector.single(QQ, Path(0, (0,)))
    assert got.values[0] == a
    assert all(v.is_zero() for v in got.values[1:])


def test_short_bracket_golden(short8):
    g = short_goldens(short8)
    psi_chi = solve_lifting(short8, g["chi"], 1, initial=g["psi_chi"].maps)
    psi_theta = solve_lifting(short8, g["theta"], 1, initial=g["psi_theta"].maps)
    got = bracket_via_lifting(short8, g["chi"], g["theta"], psi_chi, psi_theta)
    assert got == g["bracket_chi_theta"]
    # class level with solver-chosen liftings
    sc = solve_lifting(short8, g["chi"], 1)
    st = solve_lifting(short8, g["theta"], 1)
    got2 = bracket_via_lifting(short8, g["chi"], g["theta"], sc, st)
    assert same_class(got2, g["bracket_chi_theta"])


def test_self_bracket_degree_one_vanishes(family8):
    eta = family_named_cocycles(family8)["eta"]
    psi = solve_lifting(family8, eta, 1)
    assert bracket_via_lifting(family8, eta, eta, psi, psi).is_zero()


def test_bracket_of_cocycles_is_cocycle(family8):
    named = family_named_cocycles(family8)
    lifts = {n: solve_lifting(family8, c, 3) for n, c in named.items()}
    for a in ("eta", "chi"):
        for b in ("eta", "chi", "etabar", "chibar"):
            got = bracket_via_lifting(family8, named[a], named[b], lifts[a], lifts[b])
            assert coboundary(got).is_zero()


def test_graded_antisymmetry(family8):
    named = family_named_cocycles(family8)
    lifts = {n: solve_lifting(family8, c, 3) for n, c in named.items()}
    names = ("eta", "chi", "etabar", "chibar")
    for a in names:
        for b in names:
            n, m = named[a].degree, named[b].degree
            lhs = bracket_via_lifting(family8, named[a], named[b], lifts[a], lifts[b])
            rhs = bracket_via_lifting(family8, named[b], named[a], lifts[b], lifts[a])
            sign = QQ(-1) if ((m - 1) * (n - 1)) % 2 == 0 else QQ(1)
            assert same_class(lhs, rhs.scale(sign))


def test_derivation_bracket_remark_values(family8):
    named = family_named_cocycles(family8)
    op = family_psi_eta(family8, 2)  # eta's golden lifting is its derivation operator
    assert bracket_via_derivation(family8, named["eta"], named["chi"], op).is_zero()
    got = bracket_via_derivation(family8, named["eta"], named["chibar"], op)
    assert got == named["chibar"]


def test_derivation_agrees_with_lifting_up_to_coboundary(family8):
    degree1 = family_table2(family8)
    targets = family_table2(family8) + family_table1(family8)
    lift_cache = {}
    for gamma in degree1:
        op = derivation_lift(family8, gamma, 2)
        psi_gamma = solve_lifting(family8, gamma, 3)
        for chi in targets:
            key = id(chi)
            if key not in lift_cache:
                lift_cache[key] = solve_lifting(family8, chi, 3)
            via_d = bracket_via_derivation(family8, gamma, chi, op)
            via_l = bracket_via_lifting(family8, gamma, chi, psi_gamma, lift_cache[key])
            assert same_class(via_d, via_l)


def test_maurer_cartan_chibar_passes(family8, family8_f5):
    for kx in (family8, family8_f5):
        chibar = family_named_cocycles(kx)["chibar"]
        psi = solve_lifting(kx, chibar, 3)
        report = maurer_cartan_check(kx, chibar, psi)
        assert report.exact and report.class_level
        assert report.residual.is_zero()


def test_maurer_cartan_zero_cochain(family8):
    zero = Cochain.zero(family8, 2)
    psi = solve_lifting(family8, zero, 3)
    report = maurer_cartan_check(family8, zero, psi)
    assert report.exact and report.class_level


def test_maurer_cartan_distinguishes_exact_from_class(family8):
    # (0 0 0 c) composes with its canonical lifting to a nonzero coboundary,
    # so the exact check fails while the class-level one passes
    from koszulgerst.presets import family_table1
    cocycle = family_table1(family8)[7]
    psi = solve_lifting(family8, cocycle, 3)
    report = maurer_cartan_check(family8, cocycle, psi)
    assert not report.exact
    assert report.class_level
    assert not report.residual.is_zero()


def test_maurer_cartan_with_a_short_lifting_raises(family8):
    # (0 0 0 c) fails the exact check through degree 3 with residual
    # (0, 0, 0, 0, -c); a lifting solved through degree 2 only must not read
    # as zero in degree 3 and pass it
    cocycle = parse_cochain(family8, 2, "0,0,0,c")
    report = maurer_cartan_check(family8, cocycle, solve_lifting(family8, cocycle, 3))
    assert not report.exact and report.residual.format() == "(0, 0, 0, 0, -c)"
    with pytest.raises(CochainError, match="lifting not built through degree 3"):
        maurer_cartan_check(family8, cocycle, solve_lifting(family8, cocycle, 2))


def test_bracket_with_short_liftings_raises(family8):
    # [eta, etabar] = -etabar = (-a 0 0 0) needs both liftings in degree 2
    named = family_named_cocycles(family8)
    eta, etabar = named["eta"], named["etabar"]
    full = [solve_lifting(family8, c, 2) for c in (eta, etabar)]
    assert bracket_via_lifting(family8, eta, etabar, *full) == -etabar
    short = [solve_lifting(family8, c, 1) for c in (eta, etabar)]
    with pytest.raises(CochainError, match="lifting not built through degree 2"):
        bracket_via_lifting(family8, eta, etabar, *short)


def test_maurer_cartan_etabar_computed_value(family8):
    # The degree-preserving lifting of etabar is unique through degree 3 and
    # composes to zero with it, and etabar is a cocycle, so the computed
    # residual vanishes identically.  Pinned here because the acceptance
    # suite documents a conflicting stated expectation for this input.
    etabar = family_named_cocycles(family8)["etabar"]
    psi = solve_lifting(family8, etabar, 3)
    golden = family_psi_etabar(family8)
    for m in (2, 3):
        assert psi.maps[m] == golden.maps[m]  # unique, hence equal
    report = maurer_cartan_check(family8, etabar, psi)
    assert report.residual.is_zero()
    assert report.exact and report.class_level


def test_characteristic_two_unsupported():
    with pytest.raises(CharacteristicTwo):
        PrimeField(2)


def test_bar_requires_finite_dimensional(short8):
    with pytest.raises(InfiniteDimensional):
        bar_tuples(short8, 1)


def circle_product(kx, F, G):
    """F o G on the reduced bar complex, added into one dict by the package's kernel."""
    out = {}
    _circle_into(out, kx, F, G, 1)
    return GradedVector(kx.field, F.degree + G.degree - 1, out)


def test_bar_insertion_with_identity_cochain(family8):
    f = QQ
    # the 1-cochain returning its argument: value w on the tuple (w)
    ident = GradedVector(f, 1, {((w,), w): f.one
                                for L in range(3)
                                for w in family8.rs.basis_words(L)})
    basis = bar_cocycle_basis(family8, 1)
    F = basis[0]
    assert circle_product(family8, F, ident) == F
    assert bar_circle_bracket(family8, F, F) == GradedVector.zero(f, 1)


def test_bar_degree_one_brackets_are_derivation_commutators(family8):
    # restrict two bar 1-cocycles and compare the bar bracket with the
    # derivation-operator bracket on the K side
    basis = bar_cocycle_basis(family8, 1)
    pairs = [(basis[0], basis[1]), (basis[2], basis[0])]
    for F, G in pairs:
        eta = restrict_along_iota(family8, F)
        theta = restrict_along_iota(family8, G)
        bar_side = restrict_along_iota(family8, bar_circle_bracket(family8, F, G))
        op = derivation_lift(family8, eta, 1)
        via_d = bracket_via_derivation(family8, eta, theta, op)
        assert same_class(bar_side, via_d)


@pytest.mark.parametrize("fixture", ["family8", "family8_f5"])
def test_restrict_along_iota_matches_the_reference(fixture, request):
    kx = request.getfixturevalue(fixture)
    for n in (1, 2):
        basis = bar_cocycle_basis(kx, n)
        assert basis
        for F in basis:
            got, want = restrict_along_iota(kx, F), bracket_reference.restrict_along_iota(kx, F)
            assert got == want
            assert [list(v.terms.items()) for v in got.values] == \
                [list(v.terms.items()) for v in want.values]


def test_oracle_over_prime_field(family8_f5):
    report = oracle_compare(family8_f5, 1, 2)
    assert report.ok and len(report.pairs) == 120


def test_bracket_value_length_law(family8):
    # single-slot cochains with values of lengths (1,1), (2,1), (2,2) produce
    # bracket values of lengths 1, 2, 3 (the last is forced zero here)
    named = family_named_cocycles(family8)
    t2 = family_table2(family8)
    eta, chi = named["eta"], named["chi"]
    other = t2[2]  # (0, b, 0)
    lifts = {id(c): solve_lifting(family8, c, 3) for c in (eta, chi, other,
                                                           named["chibar"])}
    got = bracket_via_lifting(family8, eta, other, lifts[id(eta)], lifts[id(other)])
    assert got.internal_degrees() <= {1}
    got = bracket_via_lifting(family8, chi, other, lifts[id(chi)], lifts[id(other)])
    assert got.internal_degrees() <= {2}
    got = bracket_via_lifting(family8, chi, named["chibar"],
                              lifts[id(chi)], lifts[id(named["chibar"])])
    assert got.internal_degrees() <= {3}
    assert got.is_zero()  # no normal words of length 3 exist


def test_slot_formula_for_length_one_pairs(family8):
    # independent reconstruction: with scalar-shaped liftings the bracket at
    # each generator is sum_i b^theta_i lambda_i - sign * sum_j b^eta_j mu_j
    t2 = family_table2(family8)
    length_one = [c for c in t2 if c.internal_degrees() == {1}]
    assert length_one
    for eta in length_one:
        for theta in length_one:
            n, m = eta.degree, theta.degree
            deg = n + m - 1
            psi_eta = solve_lifting(family8, eta, deg)
            psi_theta = solve_lifting(family8, theta, deg)
            sign = QQ(1) if ((m - 1) * (n - 1)) % 2 == 0 else QQ(-1)
            expected_values = []
            for r in range(family8.count(deg)):
                acc = PathVector.zero(QQ)
                for (u, i, v), b in psi_theta.image(deg, r).terms.items():
                    assert not u.arrows and not v.arrows
                    acc = acc + eta.values[i].scale(b)
                for (u, j, v), b in psi_eta.image(deg, r).terms.items():
                    acc = acc - theta.values[j].scale(QQ(sign) * b)
                expected_values.append(acc)
            got = bracket_via_lifting(family8, eta, theta, psi_eta, psi_theta)
            assert list(got.values) == expected_values


def test_maurer_cartan_rejects_other_degrees(family8):
    eta = family_named_cocycles(family8)["eta"]
    with pytest.raises(CochainError):
        maurer_cartan_check(family8, eta, solve_lifting(family8, eta, 3))


# -- independent references for the bar side -----------------------------------
#
# bar_cocycle_basis fills the delta* matrix in one sweep over (n+1)-tuples and
# _circle_into reads F o G off the supports of F and G.  The references
# below are the direct definitions: delta* F evaluated on every composable
# (n+1)-tuple, the kernel built one coordinate column at a time, and F o G
# evaluated on every composable tuple.  They read a bar cochain as its values
# on tuples, {tuple: PathVector}, and return flat vectors keyed by
# (tuple, word) like the package does.


def _values(kx, F):
    """F's value on each tuple of its support, as {tuple: PathVector}."""
    terms = {}
    for (tup, w), c in F.terms.items():
        terms.setdefault(tup, {})[w] = c
    return {tup: PathVector(kx.field, t) for tup, t in terms.items()}


def _flat(kx, degree, values):
    """The bar cochain with the given values {tuple: PathVector}."""
    return GradedVector(kx.field, degree, {(tup, w): c for tup, vec in values.items()
                                           for w, c in vec.terms.items()})


def _evaluate_tuple(kx, values, words):
    """A cochain given by its values on a tuple of Lambda elements, multilinearly."""
    f = kx.field
    stack = [((), f.one)]
    for vec in words:
        stack = [(prefix + (path,), mul(f, coeff, c))
                 for prefix, coeff in stack for path, c in vec.terms.items()]
    acc = PathVector.zero(f)
    for key, coeff in stack:
        val = values.get(key)
        if val is not None:
            acc = acc + val.scale(coeff)
    return acc


def _singles(f, words):
    return tuple(PathVector.single(f, w) for w in words)


def bar_coboundary(kx, F):
    """delta* F: the Hochschild differential on the reduced bar complex."""
    f = kx.field
    n = F.degree
    values = _values(kx, F)
    minus = f.neg(f.one)
    out = {}
    for tup in bar_tuples(kx, n + 1):
        acc = PathVector.zero(f)
        head = values.get(tup[1:])
        if head is not None:
            acc = acc + kx.rs.multiply(PathVector.single(f, tup[0]), head)
        for i in range(n):
            merged = kx.rs.multiply(PathVector.single(f, tup[i]),
                                    PathVector.single(f, tup[i + 1]))
            inner = _evaluate_tuple(kx, values, _singles(f, tup[:i]) + (merged,)
                                                + _singles(f, tup[i + 2:]))
            acc = acc + inner.scale(minus if (i + 1) % 2 else f.one)
        tail = values.get(tup[:-1])
        if tail is not None:
            acc = acc + kx.rs.multiply(tail, PathVector.single(f, tup[-1])).scale(
                minus if (n + 1) % 2 else f.one)
        out[tup] = acc
    return _flat(kx, n + 1, out)


def _bar_coords(kx, n, shift):
    """[(tuple, value word)] with |value| = sum |w_i| + shift."""
    coords = []
    for tup in bar_tuples(kx, n):
        ell = sum(len(w.arrows) for w in tup) + shift
        if ell >= 0:
            coords.extend((tup, w) for w in kx.rs.basis_words(
                ell, o=tup[0].o, t=kx.quiver.path_target(tup[-1])))
    return coords


def reference_bar_cocycle_basis(kx, n):
    """The kernel of delta*, one bar_coboundary per source coordinate."""
    f = kx.field
    max_len = 0
    while kx.rs.basis_words(max_len + 1):
        max_len += 1
    basis = []
    for shift in range(-n * max_len, max_len + 1):
        src = _bar_coords(kx, n, shift)
        if not src:
            continue
        dst_index = {key: k for k, key in enumerate(_bar_coords(kx, n + 1, shift))}
        entries = {}
        for col, key in enumerate(src):
            dF = bar_coboundary(kx, GradedVector(f, n, {key: f.one}))
            for dkey, c in dF.terms.items():
                entry = (dst_index[dkey], col)
                entries[entry] = add(f, entries.get(entry, f.zero), c)
        for vec in nullspace_basis(Matrix(f, len(dst_index), len(src), entries)):
            values = {}
            for (tup, w), c in zip(src, vec):
                values[tup] = values.get(tup, PathVector.zero(f)) + PathVector(f, {w: c})
            basis.append(_flat(kx, n, values))
    return basis


def reference_circle_product(kx, F, G):
    """F o G evaluated on every composable (m+n-1)-tuple."""
    f = kx.field
    m, n = F.degree, G.degree
    f_values, g_values = _values(kx, F), _values(kx, G)
    out = {}
    for tup in bar_tuples(kx, m + n - 1):
        acc = PathVector.zero(f)
        for j in range(1, m + 1):
            inner = g_values.get(tup[j - 1:j - 1 + n])
            if inner is not None:
                value = _evaluate_tuple(kx, f_values, _singles(f, tup[:j - 1])
                                        + (inner,) + _singles(f, tup[j - 1 + n:]))
                acc = acc + value.scale(f.one if ((n - 1) * (j - 1)) % 2 == 0
                                        else f.neg(f.one))
        out[tup] = acc
    return _flat(kx, m + n - 1, out)


def test_bar_cocycle_basis_matches_per_coordinate_reference(family8, family8_f5):
    for kx in (family8, family8_f5, zigzag_complex()):
        for n in (1, 2):
            got = bar_cocycle_basis(kx, n)
            ref = reference_bar_cocycle_basis(kx, n)
            assert len(got) == len(ref)
            for F, G in zip(got, ref):  # the same vectors in the same order
                assert F.degree == n
                assert F == G


def test_bar_cocycle_dimensions_and_degree_3_closure(family8):
    bases = [bar_cocycle_basis(family8, n) for n in (1, 2, 3)]
    assert [len(b) for b in bases] == [6, 20, 71]
    assert len(bar_tuples(family8, 3)) == 107
    for F in bases[2]:
        assert bar_coboundary(family8, F) == GradedVector.zero(QQ, 4)


def test_bar_cocycle_basis_rejects_degree_0(family8):
    with pytest.raises(CochainError):
        bar_cocycle_basis(family8, 0)


def test_bar_tuples_memo_is_immutable_and_survives_the_oracle(family8):
    before = {n: bar_tuples(family8, n) for n in (1, 2, 3)}
    copies = {n: list(tuples) for n, tuples in before.items()}
    assert oracle_compare(family8, 1, 2).ok
    for n, tuples in before.items():
        assert isinstance(tuples, tuple)
        assert bar_tuples(family8, n) is tuples
        assert list(tuples) == copies[n]


def test_bar_circle_product_matches_tuple_enumeration(family8_f5):
    for kx in (family8_f5, zigzag_complex()):
        bases = {n: bar_cocycle_basis(kx, n) for n in (1, 2)}
        for m, n in ((1, 1), (1, 2), (2, 1), (2, 2)):
            for F in bases[m]:
                for G in bases[n]:
                    got = circle_product(kx, F, G)
                    assert got.degree == m + n - 1
                    assert got == reference_circle_product(kx, F, G)


def test_bar_circle_product_skips_tuples_that_do_not_compose(family8):
    # G(c) = a is not pinned to the ends of c, so inserting it into F(a, c)
    # would ask for the tuple (c, c), which does not compose
    f = QQ
    a, c = Path(0, (0,)), Path(0, (2,))
    F = GradedVector(f, 2, {((a, c), c): f.one})
    G = GradedVector(f, 1, {((c,), a): f.one})
    assert reference_circle_product(family8, F, G) == GradedVector.zero(f, 2)
    assert circle_product(family8, F, G) == GradedVector.zero(f, 2)


def test_oracle_degree_1_3_over_prime_field(family8_f5):
    report = oracle_compare(family8_f5, 1, 3)
    assert report.ok and len(report.pairs) == 426


# -- one term dict per value, one basis for equal degrees: the reference ----------


@functools.cache
def _reference_case(name):
    """(complex, {degree: [(cocycle, its lifting through degree 3)]}) for
    the homogeneous cocycles of degrees 1 and 2; family's are the
    restrictions of its bar cocycles, as the oracle sees them."""
    if name == "short":
        kx = load_complex("short", QQ, 4)
        cocycles = {n: [c for ell in range(3) for c in cocycle_space(kx, n, ell).cocycles]
                    for n in (1, 2)}
    else:
        kx = (load_complex("family", QQ, 4, q=1) if name == "family-Q"
              else load_complex("family", PrimeField(5), 4, q=-1))
        cocycles = {n: [restrict_along_iota(kx, F) for F in bar_cocycle_basis(kx, n)]
                    for n in (1, 2)}
    return kx, {n: [(c, solve_lifting(kx, c, 3)) for c in cs if not c.is_zero()]
                for n, cs in cocycles.items()}


def _spelled(cochain):
    """The values of a cochain, terms in their stored order."""
    return [list(v.terms.items()) for v in cochain.values]


@pytest.mark.parametrize("name", ["family-Q", "family-F5", "short"])
@pytest.mark.parametrize("n, m", [(1, 1), (1, 2), (2, 2)])
def test_brackets_and_classes_match_the_reference(name, n, m):
    # every bracket value is built in one term dict and same_class skips the
    # solve for equal value lists; values, term order and class answers must
    # be those of the reference, which builds and subtracts separate vectors
    kx, cases = _reference_case(name)
    assert cases[n] and cases[m]
    zero = Cochain.zero(kx, n + m - 1)
    previous = zero
    for eta, psi_eta in cases[n]:
        for theta, psi_theta in cases[m]:
            got = bracket_via_lifting(kx, eta, theta, psi_eta, psi_theta)
            want = bracket_reference.bracket_via_lifting(kx, eta, theta, psi_eta, psi_theta)
            assert got == want and _spelled(got) == _spelled(want)
            for other in (want, zero, previous):
                assert same_class(got, other) == bracket_reference.same_class(got, other)
            previous = got


@pytest.mark.parametrize("name", ["family-Q", "family-F5"])
@pytest.mark.parametrize("n, m", [(1, 1), (1, 2), (2, 2)])
def test_bar_brackets_and_the_oracle_match_the_reference(name, n, m):
    kx, _ = _reference_case(name)
    for F in bar_cocycle_basis(kx, n):
        for G in bar_cocycle_basis(kx, m):
            got = bar_circle_bracket(kx, F, G)
            want = bracket_reference.bar_circle_bracket(kx, F, G)
            assert got == want and list(got.terms.items()) == list(want.terms.items())
    got, want = oracle_compare(kx, n, m), bracket_reference.oracle_compare(kx, n, m)
    assert got == want and got.ok


@pytest.mark.parametrize("name", ["family-Q", "family-F5"])
@pytest.mark.parametrize("n", [1, 2])
def test_brackets_are_antisymmetric_on_the_nose(name, n):
    # [G, F] = -(-1)^{(n-1)(n-1)} [F, G] exactly, sign included, on the bar
    # side and on the lifting side, which is why oracle_compare(kx, n, n)
    # evaluates each unordered pair once
    kx, cases = _reference_case(name)
    sign = 1 if (n - 1) % 2 else -1
    basis, nonzero = bar_cocycle_basis(kx, n), [0, 0]  # bar side, lifting side
    for F in basis:
        for G in basis:
            got = bar_circle_bracket(kx, F, G)
            assert bar_circle_bracket(kx, G, F) == got.scale(sign)
            nonzero[0] += not got.is_zero()
    for eta, psi_eta in cases[n]:
        for theta, psi_theta in cases[n]:
            got = bracket_via_lifting(kx, eta, theta, psi_eta, psi_theta)
            assert bracket_via_lifting(kx, theta, eta, psi_theta, psi_eta) == got.scale(sign)
            nonzero[1] += not got.is_zero()
    assert min(nonzero) > 0


@pytest.mark.parametrize("name", ["family-Q", "family-F5"])
def test_derivation_brackets_and_maurer_cartan_match_the_reference(name):
    kx, cases = _reference_case(name)
    for eta, psi_eta in cases[2]:
        got = maurer_cartan_check(kx, eta, psi_eta).residual
        want = bracket_reference.maurer_cartan_residual(kx, eta, psi_eta)
        assert got == want and _spelled(got) == _spelled(want)
    for gamma, _ in cases[1]:
        op = derivation_lift(kx, gamma, 2)
        for chi, _ in cases[1] + cases[2]:
            got = bracket_via_derivation(kx, gamma, chi, op)
            want = bracket_reference.bracket_via_derivation(kx, gamma, chi, op)
            assert got == want and _spelled(got) == _spelled(want)


class _Images:
    """A stand-in lifting: image(m, r) is images[r], or zero."""

    def __init__(self, field, degree, images):
        self.field, self.degree, self.images = field, degree, images

    def image(self, m, r):
        return self.images.get(r, BimoduleElement(self.field, self.degree))


def test_a_first_side_that_cancels_keeps_the_reference_term_order(family8):
    # etabar = (a, 0, 0, 0) sends b.eps^2_0 and -eps^2_0.b in d(eps^3_1) to
    # b.a and -b.a: the first side of the value at r = 1 leaves b.a at zero
    # in the term dict.  The second side spells a, then b.a; the value must
    # list them in that order, as subtracting two vectors does
    kx, f = family8, family8.field
    q = kx.quiver
    etabar = family_named_cocycles(kx)["etabar"]
    e1, b = q.vertex_path(0), q.arrow_path(1)
    assert {(b, 0, e1), (e1, 0, b)} <= kx._diff_eps(3, 1).terms.keys()
    spelled = _Images(f, 2, {1: BimoduleElement(f, 2, {(e1, 0, e1): 1, (b, 0, e1): 1})})
    d3 = _Images(f, 2, {r: kx._diff_eps(3, r) for r in range(kx.count(3))})
    got = [maurer_cartan_check(kx, etabar, spelled).residual,
           bracket_via_lifting(kx, etabar, etabar, spelled, d3)]
    want = [bracket_reference.maurer_cartan_residual(kx, etabar, spelled),
            bracket_reference.bracket_via_lifting(kx, etabar, etabar, spelled, d3)]
    assert got == want
    assert [_spelled(x) for x in got] == [_spelled(x) for x in want]
    assert [q.format_path(p) for p in got[0].values[1].terms] == ["a", "b.a"]


def test_same_class_solves_only_for_unequal_representatives(family8):
    etabar = family_named_cocycles(family8)["etabar"]
    boundary = cocycle_space(family8, 2).coboundaries[0]
    with mock.patch.object(cohomology, "is_coboundary", wraps=cohomology.is_coboundary) as solve:
        assert same_class(etabar, Cochain.from_values(family8, 2, list(etabar.values)))
        assert solve.call_count == 0
        assert same_class(etabar, etabar + boundary)
        assert solve.call_count == 1 and solve.call_args.args[0] == etabar - (etabar + boundary)
        assert not same_class(etabar, Cochain.zero(family8, 2))
        assert solve.call_count == 2


def test_same_class_rejects_other_degrees_and_complexes(family8):
    # equal value lists on another complex, or of another degree, are no
    # shortcut: the pair is refused as it was before any solve
    etabar = family_named_cocycles(family8)["etabar"]
    other = load_complex("family", QQ, 3, q=1)
    twin = Cochain.from_values(other, 2, list(etabar.values))
    assert twin.values == etabar.values
    for a, b in ((etabar, twin), (twin, etabar), (etabar, Cochain.zero(family8, 1))):
        with pytest.raises(DimensionMismatch):
            same_class(a, b)
