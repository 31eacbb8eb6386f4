"""Homotopy-lifting solver, closed-form maps, checks, derivation operators."""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koszulgerst import lifting
from koszulgerst.algfile import parse_cochain
from koszulgerst.cohomology import Cochain, coboundary, cocycle_space
from koszulgerst.errors import CochainError, KoszulGerstError, NoSolution
from koszulgerst.fields import QQ, PrimeField
from koszulgerst.lifting import (HomotopyLifting, derivation_lift, derivation_on_word,
                                 lifting_residual, solve_lifting, verify_lifting)
from koszulgerst.linalg import Matrix, _nullspace_from_rref
from koszulgerst.presets import (family_named_cocycles, family_table1, family_table2,
                                 load_complex, short_goldens)
from koszulgerst.quiver import Path, PathVector, QuadraticPresentation, Quiver
from koszulgerst.resolution import BimoduleElement, KoszulComplex
from identity_reference import eps
from family_goldens import family_psi_chi, family_psi_chibar, family_psi_eta, family_psi_etabar
from lifting_reference import (reference_apply, reference_derivation_apply,
                               reference_differential, reference_lifting_rhs,
                               reference_residual, reference_sandwich_words)
from test_generic_algebra import zigzag_complex
from linalg_reference import mul, rref, single, solve_affine_reference


def zero_lifting(kx, eta, M):
    """psi = 0 built through degree M: zero images in every degree n..M."""
    n = eta.degree
    return HomotopyLifting(kx, eta, {m: [BimoduleElement(kx.field, m - n + 1)] * kx.count(m)
                                     for m in range(n, M + 1)})


def test_short_golden_liftings_verify(short8):
    g = short_goldens(short8)
    assert verify_lifting(short8, g["chi"], g["psi_chi"], 2) == []
    assert verify_lifting(short8, g["theta"], g["psi_theta"], 3) == []
    # the displayed images extend to degree 3 with zero residual throughout
    extended = solve_lifting(short8, g["chi"], 3, initial=g["psi_chi"].maps)
    assert verify_lifting(short8, g["chi"], extended, 3) == []


def test_family_closed_form_liftings(family8):
    g = family_named_cocycles(family8)
    assert verify_lifting(family8, g["eta"], family_psi_eta(family8, 8), 8) == []
    assert verify_lifting(family8, g["chi"], family_psi_chi(family8, 8), 8) == []
    assert verify_lifting(family8, g["etabar"], family_psi_etabar(family8), 3) == []
    assert verify_lifting(family8, g["chibar"], family_psi_chibar(family8), 3) == []


@pytest.mark.parametrize("qval", [-1, 2])
def test_scalar_lifting_valid_for_other_parameters(qval):
    # the closed form (m - r) scalars lift eta for every parameter value
    kx = load_complex("family", QQ, 6, q=qval)
    eta = family_named_cocycles(kx)["eta"]
    assert coboundary(eta).is_zero()
    assert verify_lifting(kx, eta, family_psi_eta(kx, 6), 6) == []


def test_solver_output_verifies(family8):
    for c in family_table2(family8) + family_table1(family8):
        lifting = solve_lifting(family8, c, 4)
        assert verify_lifting(family8, c, lifting, 4) == []


def test_solver_shape_matches_internal_degree(family8):
    g = family_named_cocycles(family8)
    # internal degree 1: only bare generators in the images
    lift = solve_lifting(family8, g["eta"], 4)
    for m, images in lift.maps.items():
        for img in images:
            for (u, i, v) in img.terms:
                assert len(u.arrows) == 0 and len(v.arrows) == 0
    # internal degree 2: exactly one arrow on one side
    lift = solve_lifting(family8, g["chi"], 4)
    for m, images in lift.maps.items():
        for img in images:
            for (u, i, v) in img.terms:
                assert len(u.arrows) + len(v.arrows) == 1


def test_solver_rejects_non_cocycle(family8):
    bad = parse_cochain(family8, 1, "b,0,0")
    assert not coboundary(bad).is_zero()
    with pytest.raises(NoSolution):
        solve_lifting(family8, bad, 3)


def test_solver_deterministic(family8):
    eta = family_named_cocycles(family8)["chi"]
    first = solve_lifting(family8, eta, 4)
    second = solve_lifting(family8, eta, 4)
    assert first.maps == second.maps


def test_degree_bounds_reported_clearly(family8):
    from koszulgerst.cohomology import cocycle_space
    eta = family_named_cocycles(family8)["eta"]
    with pytest.raises(ValueError):
        solve_lifting(family8, eta, family8.N + 1)
    with pytest.raises(ValueError):
        cocycle_space(family8, family8.N)


def test_perturbed_lifting_reports_single_residual(family8):
    g = family_named_cocycles(family8)
    lift = family_psi_eta(family8, 4)
    top = {m: list(images) for m, images in lift.maps.items()}
    # bump one top-degree image; only its own equation can notice
    bump = eps(family8, 4, 0)
    top[4] = list(top[4])
    top[4][0] = top[4][0] + bump
    from koszulgerst.lifting import HomotopyLifting
    perturbed = HomotopyLifting(family8, g["eta"], top)
    bad = verify_lifting(family8, g["eta"], perturbed, 4)
    assert [key for key, _ in bad] == [(4, 0)]


def test_verifiers_check_every_degree_through_M(family8):
    kx = family8
    eta = family_named_cocycles(kx)["eta"]
    # psi = 0 is no lifting of eta = (a 0 0): its residual is -(eta ox 1 - 1 ox eta) Delta
    bad = verify_lifting(kx, eta, zero_lifting(kx, eta, 4), 4)
    assert {m for (m, _), _ in bad} == {1, 2, 3, 4}
    for (m, r), res in bad:
        rhs = {}
        lifting._rhs_into(rhs, kx, eta, m, r, -1)
        assert res == BimoduleElement(kx.field, m - 1, rhs)
    # a lifting solved through degree 2 cannot be checked through 5: it is
    # not the zero map from degree 3 on
    partial = solve_lifting(kx, eta, 2)
    assert verify_lifting(kx, eta, partial, 2) == []
    with pytest.raises(CochainError, match="lifting not built through degree 3"):
        verify_lifting(kx, eta, partial, 5)
    # nor can a derivation operator built through degree 3
    op = derivation_lift(kx, eta, 3)
    assert verify_lifting(kx, eta, op, 3) == []
    with pytest.raises(CochainError, match="not built through degree 4"):
        verify_lifting(kx, eta, op, 5)
    with pytest.raises(CochainError):
        op.image(4, 0)
    with pytest.raises(CochainError):
        op.apply_into({}, kx._diff_eps(5, 0), 1)
    # below its degree a lifting is the zero map
    assert op.image(0, 1) == BimoduleElement(kx.field, 0)


def test_checks_past_the_complex_are_errors():
    kx = load_complex("family", QQ, 4, q=1)
    g = family_named_cocycles(kx)
    psi = family_psi_eta(kx, 4)
    calls = [lambda M: verify_lifting(kx, g["eta"], psi, M),
             lambda M: solve_lifting(kx, g["eta"], M),
             lambda M: derivation_lift(kx, g["eta"], M)]
    for call in calls:
        with pytest.raises(CochainError, match="needs resolution data through degree 9"):
            call(9)


def reference_vertex_scalar_failures(kx, n, slot, vertex, m_max):
    """The (m, r) whose per-vertex scalar identities fail for eta = e_vertex at
    slot: c_(slot,q)(m,r,n) = 0 for q that only leaves the vertex,
    c_(p,slot)(m,r,m-n) = 0 for p that only enters it, and
    c_(slot,p)(m,r,n) = (-1)^{n(m-n)} c_(p,slot)(m,r,m-n) for p that does both."""
    f = kx.field
    failing = []
    for m in range(n, m_max + 1):
        k = m - n
        leaves = {p for p in range(kx.count(k)) if kx.cobasis.origin(k, p) == vertex}
        enters = {p for p in range(kx.count(k)) if kx.cobasis.target(k, p) == vertex}
        sign = f.one if (n * k) % 2 == 0 else f.neg(f.one)
        for r in range(kx.count(m)):
            left, right = kx.c(m, r, n), kx.c(m, r, k)
            holds = (all(left.get((slot, q), f.zero) == f.zero for q in leaves - enters)
                     and all(right.get((p, slot), f.zero) == f.zero for p in enters - leaves)
                     and all(left.get((slot, p), f.zero)
                             == mul(f, sign, right.get((p, slot), f.zero))
                             for p in leaves & enters))
            if not holds:
                failing.append((m, r))
    return failing


def test_idempotent_conditions_match_the_vertex_scalar_identities():
    # every idempotent-valued cochain of degree 1..5, cocycle or not
    cochains = failed = 0
    for name, f, q in [("family", QQ, 1), ("family", QQ, -1), ("family", QQ, 2),
                       ("family", PrimeField(5), -1), ("short", QQ, None),
                       ("short", PrimeField(7), None)]:
        kx = load_complex(name, f, 7, q=q)
        for n in range(1, 6):
            for slot, (o, t) in enumerate(kx.cobasis.pairs[n]):
                if o != t:
                    continue
                values = [PathVector.zero(f)] * kx.count(n)
                values[slot] = single(f, kx.quiver.vertex_path(o))
                eta = Cochain.from_values(kx, n, values)
                residuals = verify_lifting(kx, eta, zero_lifting(kx, eta, 6), 6)
                failing = [key for key, _ in residuals]
                assert failing == reference_vertex_scalar_failures(kx, n, slot, o, 6)
                # psi = 0, so every residual term is an undecorated generator
                assert all(not u.arrows and not v.arrows
                           for _, res in residuals for u, _, v in res.terms)
                cochains += 1
                failed += bool(failing)
    assert (cochains, failed) == (100, 77)


def _disjoint_loops_complex():
    """Loop x at vertex 1 with x^2 = 0; free loop z at vertex 2."""
    quiver = Quiver(["1", "2"], [("x", "1", "1"), ("z", "2", "2")])
    xx = single(QQ, Path(0, (0, 0)))
    pres = QuadraticPresentation(quiver, [xx], field=QQ)
    return KoszulComplex(pres, 5)


def test_closed_form_idempotent_vacuous():
    kx = _disjoint_loops_complex()
    # the degree >= 2 generator tower is x^n only, so no generator of degree
    # >= 2 touches vertex 2, and psi = 0 lifts the e2-valued cocycle
    eta = Cochain.from_values(kx, 1, [PathVector.zero(QQ),
                                      single(QQ, kx.quiver.vertex_path(1))])
    assert coboundary(eta).is_zero()
    assert [m for m in range(1, 6) if any(1 in pair for pair in kx.cobasis.pairs[m - 1])] == [1, 2]
    assert verify_lifting(kx, eta, zero_lifting(kx, eta, 5), 5) == []


@pytest.mark.parametrize("degree, solve, message", [
    (0, solve_lifting, "liftings of degree-0 cochains are out of scope"),
    (2, derivation_lift, "derivation operators lift degree-1 cocycles"),
], ids=["degree-0-lifting", "degree-2-derivation"])
def test_lifting_bad_input_is_a_library_error(degree, solve, message):
    kx = _disjoint_loops_complex()
    with pytest.raises(KoszulGerstError, match=message) as exc:
        solve(kx, Cochain.zero(kx, degree), 2)
    # a CochainError is also a ValueError
    assert isinstance(exc.value, CochainError) and isinstance(exc.value, ValueError)


def test_closed_form_idempotent_power_algebra():
    # single loop, x^2 = 0: the e1-valued degree-2 cocycle has psi = 0
    quiver = Quiver(["1"], [("x", "1", "1")])
    xx = single(QQ, Path(0, (0, 0)))
    pres = QuadraticPresentation(quiver, [xx], field=QQ)
    kx = KoszulComplex(pres, 5)
    eta = Cochain.from_values(kx, 2, [single(QQ, kx.quiver.vertex_path(0))])
    assert coboundary(eta).is_zero()
    # every generator of the tower x^n touches vertex 1, and psi = 0 lifts eta
    assert verify_lifting(kx, eta, zero_lifting(kx, eta, 5), 5) == []


def chain_map_failures(kx, gamma, psi, M):
    """(n, r) where d psi(eps^n_r) differs from psi's Leibniz extension on
    d(eps^n_r), n = 1..M: psi is gamma's derivation operator if none."""
    return [(n, r) for n in range(1, M + 1) for r in range(kx.count(n))
            if kx.differential(psi.image(n, r))
            != reference_derivation_apply(kx, gamma, psi, kx._diff_eps(n, r))]


def test_derivation_operators_golden(family8):
    g = family_named_cocycles(family8)
    assert chain_map_failures(family8, g["eta"], family_psi_eta(family8, 6), 6) == []
    assert chain_map_failures(family8, g["chi"], family_psi_chi(family8, 6), 6) == []
    # a bumped image breaks the chain-map equation in its degree and the next
    psi = family_psi_eta(family8, 4)
    psi.maps[3] = [psi.maps[3][0] + eps(family8, 3, 0), *psi.maps[3][1:]]
    assert {n for n, _ in chain_map_failures(family8, g["eta"], psi, 4)} == {3, 4}


def test_derivation_lift_solver(family8):
    g = family_named_cocycles(family8)
    for name in ("eta", "chi"):
        op = derivation_lift(family8, g[name], 5)
        assert op.maps == solve_lifting(family8, g[name], 5).maps
        assert verify_lifting(family8, g[name], op, 5) == []
        assert chain_map_failures(family8, g[name], op, 5) == []
    zero = Cochain.zero(family8, 1)
    op = derivation_lift(family8, zero, 3)
    assert all(img.is_zero() for images in op.maps.values() for img in images)


def test_derivation_on_words(family8):
    g = family_named_cocycles(family8)
    ba = Path(0, (1, 0))
    # eta sends a -> a, so on the word ba the Leibniz rule gives back ba
    assert derivation_on_word(family8, g["eta"], ba) == single(QQ, ba)
    assert derivation_on_word(family8, g["eta"], Path(0, ())).is_zero()


def test_lifting_choice_independence_on_bracket_class(family8):
    # replacing the canonical lifting by canonical + homogeneous solution
    # moves the bracket only by a coboundary
    from koszulgerst.bracket import bracket_via_lifting
    from koszulgerst.cohomology import same_class
    from koszulgerst.lifting import HomotopyLifting
    g = family_named_cocycles(family8)
    eta, chibar = g["eta"], g["chibar"]
    deg = eta.degree + chibar.degree - 1
    base = solve_lifting(family8, chibar, deg)
    psi_eta = solve_lifting(family8, eta, deg)
    reference = bracket_via_lifting(family8, eta, chibar, psi_eta, base)
    moved = False
    for (m, r), nulls in homogeneous_solutions(family8, base):
        if not nulls:
            continue
        maps = {mm: list(images) for mm, images in base.maps.items()}
        maps[m] = list(maps[m])
        maps[m][r] = maps[m][r] + nulls[0]
        other = HomotopyLifting(family8, chibar, maps)
        if verify_lifting(family8, chibar, other, m) == []:
            got = bracket_via_lifting(family8, eta, chibar, psi_eta, other)
            assert same_class(got, reference)
            moved = True
    assert moved


def homogeneous_solutions(kx, psi):
    """((m, r), basis of the homogeneous solutions of the solve for
    psi(eps^m_r)) for every degree m of psi.maps, in solve order: the
    kernel bases of the lifting systems of the weight slices that solve
    used, as ansatz combinations.  d raises weight by one, so the solve
    used slice ell exactly when the image has terms of weight ell - 1."""
    n = psi.n
    for m in sorted(psi.maps):
        k = m - n + 1
        for r in range(kx.count(m)):
            ells = sorted({len(u.arrows) + len(v.arrows) + 1 for u, _, v in psi.image(m, r).terms})
            yield (m, r), [x for ell in ells for x in kernel_elements(
                kx, k, lifting._lifting_system(kx, k, ell, *kx.cobasis.o(m, r)))]


def kernel_elements(kx, k, system):
    """The kernel basis of a lifting system's elimination as BimoduleElements
    of degree k over its ansatz."""
    return [BimoduleElement(kx.field, k, zip(system.ansatz, vec))
            for vec in system.elimination.nullspace]


# -- the cached lifting systems against the per-generator solve -----------------


def _reference_ansatz(kx, m, r, n, ell):
    """Candidate terms (u, j, v) with |u| + |v| = ell - 1 and matching vertices."""
    k = m - n + 1
    o_r, t_r = kx.cobasis.o(m, r)
    out = []
    for j in range(kx.count(k)):
        o_j, t_j = kx.cobasis.o(k, j)
        for lu in range(ell):
            us = kx.rs.basis_words(lu, o=o_r, t=o_j)
            vs = kx.rs.basis_words(ell - 1 - lu, o=t_j, t=t_r)
            out += [(u, j, v) for u in us for v in vs]
    return out


def _reference_solve_images(kx, m, n, target, nullspaces):
    """Per generator, one ansatz, one column set and one fresh [A | b]
    elimination for each weight slice of the target, in increasing weight."""
    f = kx.field
    k = m - n + 1
    images = []
    for r in range(kx.count(m)):
        slices = {}
        for (u, i, v), c in target(r).terms.items():
            slices.setdefault(len(u.arrows) + len(v.arrows), {})[(u, i, v)] = c
        terms, nulls = [], []
        for ell, rhs in sorted(slices.items()):
            ansatz = _reference_ansatz(kx, m, r, n, ell)
            columns = [kx.differential(BimoduleElement(f, k, {key: f.one})) for key in ansatz]
            index = {}
            for keys in [*(col.terms for col in columns), rhs]:
                for key in keys:
                    index.setdefault(key, len(index))
            entries = {(index[key], j): c
                       for j, col in enumerate(columns) for key, c in col.terms.items()}
            b = [f.zero] * len(index)
            for key, c in rhs.items():
                b[index[key]] = c
            sol = solve_affine_reference(Matrix(f, len(index), len(columns), entries), b)
            if sol is None:
                raise NoSolution(
                    f"no lifting at degree {m}, generator {r}: input is not a "
                    f"cocycle or the resolution data is corrupted")
            terms += zip(ansatz, sol.particular)
            nulls += [BimoduleElement(f, k, zip(ansatz, vec)) for vec in sol.nullspace]
        images.append(BimoduleElement(f, k, terms))
        nullspaces[(m, r)] = nulls
    return images


def _in_order(maps):
    """Images or nullspaces with every term, in dict order."""
    return [(key, [list(x.terms.items()) for x in xs]) for key, xs in maps.items()]


def _reference_solver(nullspaces):
    """_reference_solve_images with _solve_images' signature, storing the
    homogeneous solutions of each solve in nullspaces under (m, r)."""
    return lambda *args: _reference_solve_images(*args, nullspaces)


def _cached_and_reference(monkeypatch, solve):
    """The cached solve, the per-generator one, and the latter's homogeneous
    solutions by (m, r)."""
    cached, nullspaces = solve(), {}
    with monkeypatch.context() as patch:
        patch.setattr(lifting, "_solve_images", _reference_solver(nullspaces))
        reference = solve()
    return cached, reference, nullspaces


def _golden_cocycles(kx):
    return family_table2(kx) + family_table1(kx)


def _first_inhomogeneous_sum(cocycles):
    """a + b for the first pair of cocycles of one degree whose values have
    different lengths."""
    return next(a + b for a in cocycles for b in cocycles
                if a.degree == b.degree and a.internal_degrees() != b.internal_degrees())


@pytest.mark.parametrize("fixture", ["family8", "family8_f5", "zigzag"])
def test_cached_lifting_matches_per_generator_solve(fixture, request, monkeypatch):
    if fixture == "zigzag":
        # its cocycles of one degree all have one value length, so no sum
        # of them is inhomogeneous
        kx = zigzag_complex()
        cocycles = [*cocycle_space(kx, 1).cocycles, cocycle_space(kx, 2).cocycles[0]]
    else:
        kx = request.getfixturevalue(fixture)
        golden = _golden_cocycles(kx)
        cocycles = [*golden, _first_inhomogeneous_sum(golden)]
    for eta in cocycles:
        cached, reference, nullspaces = _cached_and_reference(
            monkeypatch, lambda: solve_lifting(kx, eta, 4))
        assert _in_order(cached.maps) == _in_order(reference.maps)
        assert _in_order(dict(homogeneous_solutions(kx, cached))) == _in_order(nullspaces)
        assert verify_lifting(kx, eta, cached, 4) == []


def test_cached_solve_names_the_failing_generator(family8, monkeypatch):
    bad = parse_cochain(family8, 1, "b,0,0")
    # the same non-cocycle piece beside a cocycle of value length 2
    mixed = bad + parse_cochain(family8, 1, "0,0,b.c")
    errors = []
    for solve_images in (lifting._solve_images, _reference_solver({})):
        monkeypatch.setattr(lifting, "_solve_images", solve_images)
        for eta in (bad, mixed):
            with pytest.raises(NoSolution,
                               match=r"no lifting at degree \d+, generator \d+") as exc:
                solve_lifting(family8, eta, 3)
            errors.append(str(exc.value))
    assert len(set(errors)) == 1


MIXED_CASES = [("Q", 1), ("Q", -1), ("Q", 2), ("F5", -1)]
MIXED_N = 6


@functools.cache
def mixed_case(field, q):
    """family at N = MIXED_N and (n, {value length: cocycle basis}) for each
    degree n in 1..3 whose cocycle basis has values of two or more lengths."""
    kx = load_complex("family", QQ if field == "Q" else PrimeField(5), MIXED_N, q=q)
    degrees = []
    for n in (1, 2, 3):
        by_length = {}
        for z in cocycle_space(kx, n).cocycles:
            (ell,) = z.internal_degrees()
            by_length.setdefault(ell, []).append(z)
        if len(by_length) > 1:
            degrees.append((n, by_length))
    return kx, degrees


@settings(database=None, derandomize=True, max_examples=72, deadline=None)
@given(st.sampled_from(MIXED_CASES), st.data())
def test_inhomogeneous_cocycle_lifts_as_the_sum_of_its_pieces(case, data):
    kx, degrees = mixed_case(*case)
    f = kx.field
    n, by_length = data.draw(st.sampled_from(degrees))
    lengths = data.draw(st.lists(st.sampled_from(sorted(by_length)), min_size=2, unique=True))
    eta = Cochain.zero(kx, n)
    for ell in lengths:
        basis = by_length[ell]
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(basis),
                                    max_size=len(basis)).filter(any))
        for z, c in zip(basis, coeffs):
            eta = eta + z.scale(f(c))
    assert eta.internal_degrees() == set(lengths)
    psi = solve_lifting(kx, eta, MIXED_N)
    assert verify_lifting(kx, eta, psi, MIXED_N) == []
    pieces = [solve_lifting(kx, eta.graded_piece(ell), MIXED_N) for ell in lengths]
    for m in range(n, MIXED_N + 1):
        for r in range(kx.count(m)):
            total = BimoduleElement(f, m - n + 1)
            for piece in pieces:
                total = total + piece.image(m, r)
            assert psi.image(m, r) == total


def test_lifting_systems_built_once_per_complex(monkeypatch):
    kx = load_complex("family", QQ, 5, q=1)
    # a zero cochain has zero targets: zero images, and no system is built
    for n in (1, 2, 3):
        zero = Cochain.zero(kx, n)
        psi = solve_lifting(kx, zero, 5)
        assert sorted(psi.maps) == list(range(n, 6))
        assert all(img.is_zero() for images in psi.maps.values() for img in images)
        assert verify_lifting(kx, zero, psi, 5) == []
    assert kx._lifting_systems == {}
    builds = []

    def counted_ansatz(*args):
        builds.append(args[1:])
        return ansatz(*args)

    ansatz = lifting.lifting_ansatz
    monkeypatch.setattr(lifting, "lifting_ansatz", counted_ansatz)
    eta, b = family_table2(kx)[0], family_table2(kx)[2]  # both internal degree 1
    solve_lifting(kx, eta, 4)
    systems = dict(kx._lifting_systems)
    assert systems and len(builds) == len(systems)
    solve_lifting(kx, b, 4)
    derivation_lift(kx, eta, 4)
    assert len(builds) == len(systems)
    assert kx._lifting_systems.keys() == systems.keys()
    assert all(kx._lifting_systems[key] is system for key, system in systems.items())
    # the solver reads no kernel, so none is computed
    assert all(system.elimination._nullspace is None for system in systems.values())


def reference_lifting_system(kx, k, ell, o, t):
    """The ansatz columns' differentials, each built as an element of K, and
    the eager RREF of [A | I]: the ansatz, the row index, the pivots, the
    transform T (T A reduced) by column, as transform[row] = [(i, T[i][row])],
    and the kernel basis."""
    f = kx.field
    ansatz = lifting.lifting_ansatz(kx, k, ell, o, t)
    ncols = len(ansatz)
    index, equations = {}, []
    for j, term in enumerate(ansatz):
        for eq, c in reference_differential(kx, BimoduleElement(f, k, {term: f.one})).terms.items():
            row = index.get(eq)
            if row is None:
                row = index[eq] = len(equations)
                equations.append({ncols + row: f.one})
            equations[row][j] = c
    pivots = rref(equations, ncols + len(equations), f, naug=len(equations))
    transform = [[] for _ in equations]
    for i, row in enumerate(equations):
        for col, c in row.items():
            if col >= ncols:
                transform[col - ncols].append((i, c))
    nullspace = [BimoduleElement(f, k, zip(ansatz, vec))
                 for vec in _nullspace_from_rref(equations, pivots, ncols, f)]
    return ansatz, list(index.items()), pivots, transform, nullspace


def transform_solution(f, reference, b):
    """T b read as a solution, from the reference's transform: (pivots[i],
    (T b)[i]) for the nonzero (T b)[i], None if one with i >= rank is nonzero."""
    _, index, pivots, transform, _ = reference
    row_of, tb = dict(index), {}
    for key, v in b.items():
        for i, c in transform[row_of[key]]:
            tb[i] = tb.get(i, 0) + c * v
    tb = f.canon(tb.items())
    if any(i >= len(pivots) for i in tb):
        return None
    return [(col, tb[i]) for i, col in enumerate(pivots) if i in tb]


KERNEL_CASES = [("family", "Q", 1), ("family", "Q", -1), ("family", "F5", 1),
                ("family", "F5", -1), ("short", "Q", None)]
KERNEL_N = 5


@functools.cache
def kernel_case(name, field, q):
    """The complex and its homogeneous cocycle bases (degree, internal degree, basis)."""
    kx = load_complex(name, QQ if field == "Q" else PrimeField(5), KERNEL_N, q=q)
    slices = []
    for n in (1, 2, 3):
        for ell in range(KERNEL_N):
            basis = cocycle_space(kx, n, ell).cocycles
            if basis:
                slices.append((n, ell, basis))
    return kx, slices


@settings(database=None, derandomize=True, max_examples=40, deadline=None)
@given(st.sampled_from(KERNEL_CASES), st.data())
def test_kernel_matches_the_sandwich_references(case, data):
    kx, slices = kernel_case(*case)
    f = kx.field
    n, ell, basis = data.draw(st.sampled_from(slices))
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(basis), max_size=len(basis)))
    eta = Cochain.zero(kx, n)
    for z, c in zip(basis, coeffs):
        eta = eta + z.scale(f(c))
    for m in range(n, KERNEL_N + 1):  # before the solve, which reads the same rhs
        for r in range(kx.count(m)):
            out = {}
            lifting._rhs_into(out, kx, eta, m, r, 1)
            assert BimoduleElement(f, m - n, out) == reference_lifting_rhs(kx, eta, m, r)
    psi = solve_lifting(kx, eta, KERNEL_N)
    # every image moved by a generator, so the residual has all three parts
    moved = HomotopyLifting(kx, eta, {m: [img + eps(kx, img.degree, 0) for img in images]
                                      for m, images in psi.maps.items()})
    for m in range(n, KERNEL_N + 1):
        for r in range(kx.count(m)):
            d = kx._diff_eps(m, r)
            for lift in (psi, moved):
                out = {}
                lift.apply_into(out, d, 1)
                assert BimoduleElement(f, m - n, out) == reference_apply(lift, d)
            assert (lifting_residual(kx, eta, moved, m, r)
                    == reference_residual(kx, eta, moved, m, r))


@pytest.mark.parametrize("case", [*KERNEL_CASES, "zigzag"],
                         ids=lambda c: c if c == "zigzag" else "-".join(map(str, c)))
def test_leibniz_extension_is_the_lifting_equation(case):
    # for a degree-1 gamma, d psi - (Leibniz extension of psi) d is the
    # lifting residual term for term, for any images psi: the derivation
    # operator of gamma and its homotopy lifting solve one equation
    if case == "zigzag":
        kx = zigzag_complex()
        gammas = cocycle_space(kx, 1).cocycles
    else:
        kx, slices = kernel_case(*case)
        gammas = [gamma for n, _, basis in slices if n == 1 for gamma in basis]
    M = min(kx.N, KERNEL_N)
    assert gammas
    for gamma in gammas:
        psi = solve_lifting(kx, gamma, M)
        moved = HomotopyLifting(kx, gamma, {m: [img + eps(kx, img.degree, 0) for img in images]
                                            for m, images in psi.maps.items()})
        for lift in (psi, moved):
            for m in range(1, M + 1):
                for r in range(kx.count(m)):
                    d = kx._diff_eps(m, r)
                    leibniz = kx.differential(lift.image(m, r)) - reference_derivation_apply(
                        kx, gamma, lift, d)
                    assert leibniz == lifting_residual(kx, gamma, lift, m, r)
        assert verify_lifting(kx, gamma, moved, M) != []


def reference_derivation_on_word(kx, gamma, path):
    """derivation_on_word as it was before it fed Path prefixes and suffixes to
    word_product: each one wrapped as a vector and multiplied twice."""
    f = kx.field
    acc = {}
    q = kx.quiver

    def subpath(start, stop):
        o = path.o if start == 0 else q.arrow_t[path.arrows[start - 1]]
        return Path(o, path.arrows[start:stop])

    for k, a in enumerate(path.arrows):
        val = gamma.values[a]
        if val.is_zero():
            continue
        prefix = single(f, subpath(0, k))
        suffix = single(f, subpath(k + 1, len(path.arrows)))
        for w, c in kx.rs.multiply(kx.rs.multiply(prefix, val), suffix).terms.items():
            acc[w] = acc.get(w, 0) + c
    return PathVector(f, acc)


@pytest.mark.parametrize("case", KERNEL_CASES, ids=lambda c: "-".join(map(str, c)))
def test_derivation_on_word_matches_the_reference(case):
    kx, slices = kernel_case(*case)
    words = [w for length in range(6) for w in kx.rs.basis_words(length)]
    gammas = [gamma for n, _, basis in slices if n == 1 for gamma in basis]
    assert gammas and len(words) > kx.quiver.num_vertices
    for gamma in gammas:
        for w in words:
            got, want = derivation_on_word(kx, gamma, w), reference_derivation_on_word(kx, gamma, w)
            assert got == want and list(got.terms.items()) == list(want.terms.items())


@pytest.mark.parametrize("case", KERNEL_CASES, ids=lambda c: "-".join(map(str, c)))
def test_lifting_system_columns_match_the_differential_reference(case):
    kx, _ = kernel_case(*case)
    f, nv = kx.field, kx.quiver.num_vertices
    for k in range(1, KERNEL_N):
        for ell in (1, 2, 3):
            for o in range(nv):
                for t in range(nv):
                    got = lifting._lifting_system(kx, k, ell, o, t)
                    ansatz, index, pivots, transform, nullspace = want = \
                        reference_lifting_system(kx, k, ell, o, t)
                    elimination = got.elimination
                    assert (got.ansatz, list(elimination.index.items()), elimination.pivots,
                            kernel_elements(kx, k, got)) == (ansatz, index, pivots, nullspace)
                    # the replayed row operations solve as T: on each unit
                    # vector e_row and on each column of A
                    rhs = [{key: f.one} for key, _ in index]
                    rhs += [reference_differential(kx, BimoduleElement(f, k, {term: f.one})).terms
                            for term in ansatz]
                    for b in rhs:
                        assert elimination.solve(b) == transform_solution(f, want, b)


@pytest.mark.parametrize("scale", [0, 1, -1])
def test_sandwich_into_matches_sandwich_words(scale, family8, rng):
    f = family8.field
    words = family8.rs.basis_words(0) + family8.rs.basis_words(1) + family8.rs.basis_words(2)
    for _ in range(200):
        n = rng.randrange(0, 5)
        x = family8._diff_eps(n + 1, rng.randrange(family8.count(n + 1)))
        u, v = rng.choice(words), rng.choice(words)
        out = {}
        family8.sandwich_into(out, u, x.terms, v, f(scale))
        got = BimoduleElement(f, n, out)
        assert got == reference_sandwich_words(family8, u, x, v).scale(f(scale))
        if scale == 1:
            assert got == family8.sandwich(single(f, u), x, single(f, v))
