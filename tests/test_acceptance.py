"""Acceptance suite: one test per shipped correctness criterion.

Every criterion is exact (zero residuals, equality in the field); there are
no tolerances anywhere.  Each test records a PASS/FAIL line that pytest
prints in a terminal summary section at the end of the run.
"""

import time

from koszulgerst.bracket import (bracket_via_derivation, bracket_via_lifting,
                                 maurer_cartan_check, oracle_compare)
from koszulgerst.cohomology import coboundary, cup_product, same_class
from koszulgerst.fields import QQ, PrimeField
from koszulgerst.lifting import HomotopyLifting, derivation_lift, solve_lifting, verify_lifting
from koszulgerst.presets import (family_named_cocycles, family_table1, family_table2,
                                 family_table3, load_complex, short_goldens)
from koszulgerst.quiver import Path, PathVector
from family_goldens import family_psi_chi, family_psi_chibar, family_psi_eta, family_psi_etabar
from linalg_reference import single
from test_lifting import chain_map_failures, homogeneous_solutions

F5 = PrimeField(5)


def test_criterion_1_resolution_identities(short8, family8, family8_f5, record_criterion):
    """d^2 = 0, DG compatibility, coassociativity, counit, bar embedding."""
    cases = [("short/Q", short8), ("family q=1/Q", family8),
             ("family q=1/F5", family8_f5),
             ("short/F5", load_complex("short", F5, 8))]
    for qval in (-1, 2):
        for field, tag in ((QQ, "Q"), (F5, "F5")):
            cases.append((f"family q={qval}/{tag}",
                          load_complex("family", field, 8, q=qval)))
    failures = []
    for tag, kx in cases:
        report = kx.verify_resolution()
        if not report.ok:
            failures.append((tag, report.failures[0]))
    ok = record_criterion(
        "criterion 1: resolution identities at N=8 "
        "(short; family q=1,-1,2; over Q and F5)", not failures, f"{len(cases)} algebras")
    assert ok, failures


def test_criterion_2_short_example_goldens(short8, record_criterion):
    g = short_goldens(short8)
    chi, theta = g["chi"], g["theta"]
    checks = []
    checks.append(coboundary(chi).is_zero())
    checks.append(coboundary(theta).is_zero())
    # the displayed images, extended canonically, have zero residual
    # through degree 3 (the displayed degrees themselves verify on the nose)
    checks.append(verify_lifting(short8, chi, g["psi_chi"], 2) == [])
    checks.append(verify_lifting(short8, theta, g["psi_theta"], 3) == [])
    psi_chi = solve_lifting(short8, chi, 3, initial=g["psi_chi"].maps)
    psi_theta = solve_lifting(short8, theta, 3, initial=g["psi_theta"].maps)
    checks.append(verify_lifting(short8, chi, psi_chi, 3) == [])
    checks.append(verify_lifting(short8, theta, psi_theta, 3) == [])
    bracket = bracket_via_lifting(short8, chi, theta, psi_chi, psi_theta)
    checks.append(bracket == -chi)
    solver_bracket = bracket_via_lifting(
        short8, chi, theta, solve_lifting(short8, chi, 1), solve_lifting(short8, theta, 1))
    checks.append(same_class(solver_bracket, -chi))
    ok = record_criterion(
        "criterion 2: short-example goldens (cocycles, liftings, [chi,theta] = -chi)",
        all(checks))
    assert ok, checks


def test_criterion_3_cocycle_tables(family8, record_criterion):
    t1 = family_table1(family8)
    t2 = family_table2(family8)
    ok = (len(t1) == 9 and len(t2) == 6
          and all(coboundary(c).is_zero() for c in t1)
          and all(coboundary(c).is_zero() for c in t2))
    ok = record_criterion(
        "criterion 3: all 9 degree-2 and 6 degree-1 table vectors lie in ker d*", ok)
    assert ok


def test_criterion_4_bracket_table(family8, record_criterion):
    named = family_named_cocycles(family8)
    lifts = {name: solve_lifting(family8, c, 3) for name, c in named.items()
             if name != "theta"}
    class_ok, exact_hits = True, 0
    for (a, b), expected in sorted(family_table3(family8, named).items()):
        got = bracket_via_lifting(family8, named[a], named[b], lifts[a], lifts[b])
        class_ok = class_ok and same_class(got, expected)
        exact_hits += got == expected
    slot = bracket_via_lifting(family8, named["etabar"], named["eta"],
                               lifts["etabar"], lifts["eta"])
    slot_ok = (slot.values[0] == single(QQ, Path(0, (0,)))
               and all(v.is_zero() for v in slot.values[1:]))
    ok = record_criterion(
        "criterion 4: all 16 bracket-table entries at class level, "
        "slot value [etabar,eta](eps^2_0) = a exact",
        class_ok and slot_ok, f"exact representatives: {exact_hits}/16")
    assert ok


def test_criterion_5_closed_form_liftings(family8, short8, record_criterion):
    named = family_named_cocycles(family8)
    checks = []
    checks.append(verify_lifting(family8, named["eta"], family_psi_eta(family8, 8), 8) == [])
    checks.append(verify_lifting(family8, named["chi"], family_psi_chi(family8, 8), 8) == [])
    checks.append(verify_lifting(family8, named["etabar"], family_psi_etabar(family8), 3) == [])
    checks.append(verify_lifting(family8, named["chibar"], family_psi_chibar(family8), 3) == [])
    g = short_goldens(short8)
    checks.append(verify_lifting(short8, g["chi"], g["psi_chi"], 2) == [])
    ok = record_criterion(
        "criterion 5: closed-form liftings verify (scalar family to degree 8, "
        "decorated families to degree 3, short-example length-2 lifting to degree 2)",
        all(checks))
    assert ok, checks


def test_criterion_6a_maurer_cartan_chibar(family8, family8_f5, record_criterion):
    ok = True
    for kx in (family8, family8_f5):
        chibar = family_named_cocycles(kx)["chibar"]
        report = maurer_cartan_check(kx, chibar, solve_lifting(kx, chibar, 3))
        ok = ok and report.exact and report.class_level
    ok = record_criterion(
        "criterion 6a: Maurer-Cartan holds for chibar = (0 0 ab 0), char 0 and 5", ok)
    assert ok


def test_criterion_6b_maurer_cartan_etabar_stated_failure(family8, family8_f5,
                                                          record_criterion):
    """Stated expectation: etabar = (a 0 0 0) fails the Maurer-Cartan check.

    The exact computation disagrees: etabar is a cocycle (so the
    differential side of the equation vanishes) and its degree-preserving
    lifting is unique through degree 3 and composes with etabar to zero, so
    the residual is identically zero over Q and over F5 and the check
    passes at both the exact and class level.  The assertion below pins the
    stated expectation and is expected to stay red; see the repository
    README for the computation.
    """
    outcomes = []
    for kx in (family8, family8_f5):
        etabar = family_named_cocycles(kx)["etabar"]
        report = maurer_cartan_check(kx, etabar, solve_lifting(kx, etabar, 3))
        outcomes.append(report)
    stated = all(not r.exact for r in outcomes)
    record_criterion(
        "criterion 6b: Maurer-Cartan fails for etabar = (a 0 0 0) as stated",
        stated,
        "computed residual is identically zero; the stated expectation "
        "contradicts the exact computation")
    assert stated, (
        "etabar satisfies the Maurer-Cartan equation exactly: residuals "
        + "; ".join(r.residual.format() for r in outcomes)
        + " (both terms vanish: the cochain is a cocycle and the unique "
          "degree-preserving lifting composes with it to zero)")


def test_criterion_7_derivation_operators(family8, record_criterion):
    named = family_named_cocycles(family8)
    # the golden liftings of eta and chi, extended by the Leibniz rule, are
    # chain maps: checked with the test-side Leibniz extension
    checks = [
        chain_map_failures(family8, named["eta"], family_psi_eta(family8, 6), 6) == [],
        chain_map_failures(family8, named["chi"], family_psi_chi(family8, 6), 6) == [],
    ]
    degree1 = family_table2(family8)
    targets = family_table2(family8) + family_table1(family8)
    target_lifts = [solve_lifting(family8, c, 3) for c in targets]
    agree = True
    for gamma in degree1:
        op = derivation_lift(family8, gamma, 2)
        psi_gamma = solve_lifting(family8, gamma, 3)
        for chi, psi_chi in zip(targets, target_lifts):
            via_d = bracket_via_derivation(family8, gamma, chi, op)
            via_l = bracket_via_lifting(family8, gamma, chi, psi_gamma, psi_chi)
            agree = agree and same_class(via_d, via_l)
    checks.append(agree)
    ok = record_criterion(
        "criterion 7: derivation operators are chain maps to degree 6; "
        "derivation and lifting brackets agree on all 6 x 15 golden pairs",
        all(checks))
    assert ok, checks


def test_criterion_8_bar_oracle(family8, record_criterion):
    start = time.time()
    r11 = oracle_compare(family8, 1, 1)
    r12 = oracle_compare(family8, 1, 2)
    r22 = oracle_compare(family8, 2, 2)
    elapsed = time.time() - start
    ok = record_criterion(
        "criterion 8: bar-side brackets agree with lifting-side brackets "
        "in degrees (1,1), (1,2) and (2,2)",
        r11.ok and r12.ok and r22.ok and len(r22.pairs) == 400,
        f"{len(r11.pairs)} + {len(r12.pairs)} + {len(r22.pairs)} pairs in {elapsed:.1f}s")
    assert ok


def test_criterion_9_property_suites(family8, rng, record_criterion):
    named = family_named_cocycles(family8)
    t1, t2 = family_table1(family8), family_table2(family8)
    pool = t2 + t1
    lifts = {id(c): solve_lifting(family8, c, 4) for c in pool}
    checks = {}

    # lifting-choice independence of the bracket class; perturbations are
    # only available where the homogeneous system is nontrivial, so require
    # at least one exercised perturbation across the sample
    eta = t2[0]
    ok, perturbed_total = True, 0
    for chi in rng.sample(pool, 5):
        base = lifts[id(chi)]
        reference = bracket_via_lifting(family8, eta, chi, lifts[id(eta)], base)
        for (m, r), nulls in homogeneous_solutions(family8, base):
            if m != eta.degree + chi.degree - 1 or not nulls:
                continue
            maps = {mm: list(images) for mm, images in base.maps.items()}
            maps[m] = list(maps[m])
            maps[m][r] = maps[m][r] + nulls[rng.randrange(len(nulls))]
            other = HomotopyLifting(family8, chi, maps)
            got = bracket_via_lifting(family8, eta, chi, lifts[id(eta)], other)
            ok = ok and same_class(got, reference)
            perturbed_total += 1
    checks["lifting-choice independence"] = ok and perturbed_total > 0

    # graded antisymmetry at class level
    ok = True
    for _ in range(8):
        a, b = rng.choice(pool), rng.choice(pool)
        n, m = a.degree, b.degree
        lhs = bracket_via_lifting(family8, a, b, lifts[id(a)], lifts[id(b)])
        rhs = bracket_via_lifting(family8, b, a, lifts[id(b)], lifts[id(a)])
        sign = QQ(-1) if ((m - 1) * (n - 1)) % 2 == 0 else QQ(1)
        ok = ok and same_class(lhs, rhs.scale(sign))
    checks["graded antisymmetry"] = ok

    # bracket of cocycles is a cocycle
    ok = True
    for _ in range(8):
        a, b = rng.choice(pool), rng.choice(pool)
        got = bracket_via_lifting(family8, a, b, lifts[id(a)], lifts[id(b)])
        ok = ok and coboundary(got).is_zero()
    checks["bracket of cocycles is a cocycle"] = ok

    # cup graded commutativity up to coboundary
    ok = True
    for _ in range(8):
        a, b = rng.choice(pool), rng.choice(pool)
        sign = QQ(1) if (a.degree * b.degree) % 2 == 0 else QQ(-1)
        ok = ok and same_class(cup_product(a, b), cup_product(b, a).scale(sign))
    checks["cup graded commutativity"] = ok

    # value-length law: bracket internal degree is additive minus one
    ok = True
    for _ in range(8):
        a, b = rng.choice(pool), rng.choice(pool)
        da, db = a.internal_degrees(), b.internal_degrees()
        if len(da) != 1 or len(db) != 1:
            continue
        (la,), (lb,) = da, db
        got = bracket_via_lifting(family8, a, b, lifts[id(a)], lifts[id(b)])
        ok = ok and got.internal_degrees() <= {la + lb - 1}
    checks["bracket value-length law"] = ok

    # slot formula for length-one-valued pairs
    ok = True
    ones = [c for c in t2 if c.internal_degrees() == {1}]
    for a in ones:
        for b in ones:
            deg = a.degree + b.degree - 1
            sign = QQ(1) if ((a.degree - 1) * (b.degree - 1)) % 2 == 0 else QQ(-1)
            got = bracket_via_lifting(family8, a, b, lifts[id(a)], lifts[id(b)])
            for r in range(family8.count(deg)):
                acc = PathVector.zero(QQ)
                for (u, i, v), coeff in lifts[id(b)].image(deg, r).terms.items():
                    acc = acc + a.values[i].scale(coeff)
                for (u, j, v), coeff in lifts[id(a)].image(deg, r).terms.items():
                    acc = acc - b.values[j].scale(QQ(sign) * coeff)
                ok = ok and got.values[r] == acc
    checks["componentwise slot formula"] = ok

    ok = record_criterion(
        "criterion 9: seeded property suites "
        "(independence, antisymmetry, cocycle closure, cup commutativity, "
        "length law, slot formula)", all(checks.values()),
        ", ".join(k for k, v in checks.items() if not v) or "all six")
    assert ok, checks
