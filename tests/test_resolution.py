"""The bimodule resolution: differential, diagonal, embedding, identities.

The family preset has closed-form differentials and diagonals; both are
re-implemented here independently (straight from the formulas, not via the
scalar tables) and compared term by term with the engine's output.
"""

import pytest

from koszulgerst.algfile import parse_presentation
from koszulgerst.errors import DegreeUnderflow
from koszulgerst.fields import QQ, PrimeField
from koszulgerst.linalg import Matrix, rank
from koszulgerst.presets import load_complex
from koszulgerst.quiver import Path
from koszulgerst.resolution import BimoduleElement, KoszulComplex

from identity_reference import (COASSOC, COUNIT, D_SQUARED, DG_COMPAT, augment, diff_witness,
                                double_scalar, eps, reference_failures, reference_sides)
from linalg_reference import add, mul, single
from test_generic_algebra import zigzag_complex
from test_koszul import quantum_exterior_text


def term(kx, coeff, uword, n, i, vword):
    """coeff * u . eps^n_i . v with words given by arrow-name strings."""
    q = kx.quiver
    o, t = kx.cobasis.o(n, i)
    u = (Path(o, ()) if not uword
         else Path(q.arrow_o[q.arrow_index[uword[0]]],
                   tuple(q.arrow_index[ch] for ch in uword)))
    v = (Path(t, ()) if not vword
         else Path(q.arrow_o[q.arrow_index[vword[0]]],
                   tuple(q.arrow_index[ch] for ch in vword)))
    return BimoduleElement(kx.field, n, {(u, i, v): kx.field(coeff)})


def angle_component(kx, n, r, j):
    """The summand of d_n(eps^n_r) that lands on generator j below, built
    straight from the comultiplicative scalars c(n, r, 1) and c(n, r, n-1)."""
    f, q = kx.field, kx.quiver
    sign = f.one if n % 2 == 0 else f.neg(f.one)
    terms = {}
    for (p, jj), c in kx.c(n, r, 1).items():
        if jj == j:
            key = (q.arrow_path(p), j, q.vertex_path(kx.cobasis.target(n - 1, j)))
            terms[key] = add(f, terms.get(key, f.zero), c)
    for (jj, p), c in kx.c(n, r, n - 1).items():
        if jj == j:
            key = (q.vertex_path(kx.cobasis.origin(n - 1, j)), j, q.arrow_path(p))
            terms[key] = add(f, terms.get(key, f.zero), mul(f, sign, c))
    return BimoduleElement(f, n - 1, terms)


def family_differential_oracle(kx, qval, n, r):
    """The family's closed-form differential, coded directly."""
    f = kx.field
    q = f(qval)
    if n == 1 and r == 2:
        return term(kx, 1, "c", 0, 1, "") - term(kx, 1, "", 0, 0, "c")
    if r == n + 1:
        return (term(kx, 1, "a", n - 1, n, "")
                + term(kx, (-1) ** n, "", n - 1, 0, "c"))
    acc = BimoduleElement.zero(f, n - 1)
    if r != n:
        acc = acc + term(kx, 1, "a", n - 1, r, "")
        acc = acc + term(kx, 1, "", n - 1, r, "a").scale(mul(f, f((-1) ** (n - r)), q ** r))
    if r != 0:
        acc = acc + term(kx, 1, "b", n - 1, r - 1, "").scale(f(-qval) ** (n - r))
        acc = acc + term(kx, (-1) ** n, "", n - 1, r - 1, "b")
    return acc


def family_diagonal_oracle(kx, qval, n, s):
    """The family's closed-form diagonal as {(v, p, q): coeff}.

    The right-hand boundary term of the last generator pairs with the
    terminal vertex e2, as the exact scalar solve requires.
    """
    f = kx.field
    minus_q = f(-qval)
    out = {}
    if s == 0:
        for r in range(n + 1):
            out[(r, 0, 0)] = f.one
    elif s < n:
        for w in range(n + 1):
            for j in range(max(0, s + w - n), min(w, s) + 1):
                out[(w, j, s - j)] = minus_q ** (j * (n - s + j - w))
    elif s == n:
        for t in range(n + 1):
            out[(t, t, n - t)] = f.one
    else:  # s == n + 1
        out[(0, 0, n + 1)] = f.one
        for t in range(1, n):
            out[(t, 0, n - t + 1)] = f.one
        out[(n, n + 1, 1)] = f.one
    return out


@pytest.mark.parametrize("qval", [1, 2])
def test_family_differential_matches_oracle(qval):
    kx = load_complex("family", QQ, 6, q=qval)
    for n in range(1, 7):
        for r in range(kx.count(n)):
            assert kx._diff_eps(n, r) == family_differential_oracle(kx, qval, n, r), (n, r)


@pytest.mark.parametrize("qval", [1, 2])
def test_family_diagonal_matches_oracle(qval):
    kx = load_complex("family", QQ, 6, q=qval)
    for n in range(7):
        for s in range(kx.count(n)):
            got = {(t.left_degree, t.left_index, t.right_index): t.coeff
                   for t in kx.diagonal(n, s)}
            if n == 0:
                assert got == {(0, s, s): QQ(1)}
            else:
                assert got == family_diagonal_oracle(kx, qval, n, s), (n, s)


def test_short_differential_goldens(short8):
    kx = short8
    assert kx._diff_eps(1, 0) == term(kx, 1, "x", 0, 0, "") - term(kx, 1, "", 0, 0, "x")
    assert kx._diff_eps(1, 1) == term(kx, 1, "y", 0, 0, "") - term(kx, 1, "", 0, 0, "y")
    assert kx._diff_eps(2, 0) == term(kx, 1, "x", 1, 0, "") + term(kx, 1, "", 1, 0, "x")
    assert kx._diff_eps(2, 1) == (term(kx, 1, "y", 1, 0, "") + term(kx, 1, "", 1, 0, "y")
                                  + term(kx, 1, "x", 1, 1, "") + term(kx, 1, "", 1, 1, "x"))


def test_short_diagonal_goldens(short8):
    got = {(t.left_degree, t.left_index, t.right_index): t.coeff
           for t in short8.diagonal(2, 0)}
    assert got == {(0, 0, 0): QQ(1), (1, 0, 0): QQ(1), (2, 0, 0): QQ(1)}
    got = {(t.left_degree, t.left_index, t.right_index): t.coeff
           for t in short8.diagonal(2, 1)}
    assert got == {(0, 0, 1): QQ(1), (1, 0, 1): QQ(1), (1, 1, 0): QQ(1), (2, 1, 0): QQ(1)}


def test_differential_of_zero_and_linearity(family8, rng):
    zero = BimoduleElement.zero(QQ, 3)
    assert family8.differential(zero).is_zero()
    # d(u x v) = u d(x) v on random decorated generators
    words = [w for L in range(3) for w in family8.rs.basis_words(L)]
    for _ in range(25):
        n = rng.randrange(1, 5)
        i = rng.randrange(family8.count(n))
        o, t = family8.cobasis.o(n, i)
        us = [w for w in words if family8.quiver.path_target(w) == o]
        vs = [w for w in words if w.o == t]
        if not us or not vs:
            continue
        u, v = rng.choice(us), rng.choice(vs)
        x = sandwich_words(family8, u, eps(family8, n, i), v)
        if x.is_zero():
            continue
        lhs = family8.differential(x)
        rhs = sandwich_words(family8, u, family8._diff_eps(n, i), v)
        assert lhs == rhs


def sandwich_words(kx, u, x, v):
    """u . x . v for normal words u, v, through the accumulate-into kernel."""
    out = {}
    kx.sandwich_into(out, u, x.terms, v, 1)
    return BimoduleElement(kx.field, x.degree, out)


def test_sandwich_into_matches_sandwich(family8, rng):
    # sandwich_into multiplies words directly; sandwich wraps them as vectors
    f = family8.field
    words = [w for ell in range(3) for w in family8.rs.basis_words(ell)]
    for _ in range(40):
        n = rng.randrange(0, 5)
        x = family8._diff_eps(n + 1, rng.randrange(family8.count(n + 1)))
        u, v = rng.choice(words), rng.choice(words)
        got = sandwich_words(family8, u, x, v)
        want = family8.sandwich(single(f, u), x, single(f, v))
        assert list(got.terms.items()) == list(want.terms.items())


def test_augment_and_underflow(family8):
    # the reference augmentation, against which d*d=0's degree-1 witness is compared
    x = sandwich_words(family8, Path(0, (1,)), eps(family8, 0, 0), Path(0, (0,)))
    assert augment(family8, x) == single(QQ, Path(0, (1, 0)))
    with pytest.raises(DegreeUnderflow):
        family8.differential(eps(family8, 0, 0))


def test_iota_goldens(short8, family8):
    q2 = load_complex("family", QQ, 3, q=2)
    bar = q2.iota(2, 1)
    qv = q2.quiver
    e1 = Path(0, ())
    a, b = Path(0, (0,)), Path(0, (1,))
    assert bar.terms == {(e1, a, b, e1): QQ(1), (e1, b, a, e1): QQ(-2)}
    assert family8.iota(1, 2).terms == {(Path(0, ()), Path(0, (2,)), Path(1, ())): QQ(1)}
    x, y = Path(0, (0,)), Path(0, (1,))
    expect = {(e1, x, x, y, e1): QQ(1), (e1, x, y, x, e1): QQ(1), (e1, y, x, x, e1): QQ(1)}
    assert short8.iota(3, 1).terms == expect


@pytest.mark.parametrize("name", ["short", "family"])
def test_letter_table_spells_every_generator(name):
    kx = (load_complex("short", QQ, 5) if name == "short"
          else load_complex("family", PrimeField(5), 5, q=-1))
    q = kx.quiver
    for n in range(kx.N + 1):
        for i in range(kx.count(n)):
            table = kx._letters(n, i)
            # decoded from the codes, word for word and in their order
            if n:
                assert [(q.code(Path(letters[0].o, tuple(x.arrows[0] for x in letters))), c)
                        for letters, c in table] == list(kx.cobasis.codes(n, i).items())
            spelled = {}
            for letters, c in table:
                assert len(letters) == n
                for letter in letters:
                    assert len(letter.arrows) == 1
                    assert letter is q.arrow_path(letter.arrows[0])
                spelled[".".join(q.format_path(letter) for letter in letters)] = c
            words = {q.format_path(w) if n else "": c
                     for w, c in kx.cobasis.f(n, i).terms.items()}
            assert len(table) == len(words) and spelled == words


def test_angle_components_sum_to_differential(short8, family8):
    for kx in (short8, family8):
        for n in range(1, 7):
            for r in range(kx.count(n)):
                total = BimoduleElement.zero(QQ, n - 1)
                for j in range(kx.count(n - 1)):
                    total = total + angle_component(kx, n, r, j)
                assert total == kx._diff_eps(n, r)


def test_angle_component_values(short8):
    got = angle_component(short8, 2, 1, 0)
    assert got == term(short8, 1, "y", 1, 0, "") + term(short8, 1, "", 1, 0, "y")
    assert angle_component(short8, 2, 0, 1).is_zero()


def test_verify_resolution_presets(short8, family8, family8_f5):
    for kx in (short8, family8, family8_f5):
        report = kx.verify_resolution()
        assert report.ok, report.failures[:3]
        assert len(report.checked) == 5


def test_verify_resolution_negative_control():
    kx = load_complex("short", QQ, 3)
    # flip one sign in d(eps^2_0): d squared picks it up with a witness
    good = kx._diff_eps(2, 0)
    (u, i, v), coeff = next(iter(good.terms.items()))
    bad = good + BimoduleElement(QQ, 1, {(u, i, v): QQ(-2) * coeff})
    kx._diff_cache[(2, 0)] = bad
    report = kx.verify_resolution()
    assert not report.ok
    assert any(f[0] == "d*d=0" for f in report.failures)
    name, deg, idx, witness = report.failures[0]
    assert witness
    # the tensor-square and bar identities fail too, and every witness is
    # spelled in path notation rather than as Path tuples
    names = {f[0] for f in report.failures}
    assert {"(d ox 1 + 1 ox d)Delta = Delta d", "delta iota = iota d"} <= names
    assert all("Path(" not in f[3] for f in report.failures)
    assert ("delta iota = iota d", 2, 0, "term (x, x, e1): 2") in report.failures


IOTA = "delta iota = iota d"


def test_verify_resolution_catches_corrupt_scalar():
    # corrupting c(3, 1, 1) before d(eps^3_1) is built breaks the differential
    # and the diagonal of eps^3_1 together, and nothing else
    kx = load_complex("short", QQ, 3)
    double_scalar(kx, 3, 1, 1)
    report = kx.verify_resolution()
    assert [f[:3] for f in report.failures] == [
        (D_SQUARED, 3, 1), (DG_COMPAT, 3, 1), (COASSOC, 3, 1), (IOTA, 3, 1)]
    witnesses = {f[0]: f[3] for f in report.failures}
    assert witnesses[D_SQUARED] == "term (x, eps^1_0, y): 1"
    assert witnesses[DG_COMPAT] == "term (1, e1, 0, e1, 0, y): -1"
    assert witnesses[COASSOC] == "term (1, 1, 0, 0, 1): -1"
    assert witnesses[IOTA] == "term (x, x, y, e1): -1"
    assert report.failures[:3] == reference_failures(kx, kx.N)


def _packed_sums(kx):
    """{(identity, n, r): {decoded key: coeff}}: each generator's nonzero
    lhs - rhs as verify_resolution sums it on packed keys, every key read
    back through its check's own decode."""
    found = {}

    def record(name, n0, N, sides, decode, checked, failures):
        for n in range(n0, N + 1):
            for r in range(kx.count(n)):
                acc = {}
                sides(n, r, acc)
                nonzero = kx.field.canon(acc.items())
                if nonzero:
                    found[(name, n, r)] = {decode(n, key): c for key, c in nonzero.items()}
                    failures.append((name, n, r))

    kx._check_sides = record
    kx.verify_resolution()
    return found


@pytest.mark.parametrize("make", [
    lambda: KoszulComplex(parse_presentation(quantum_exterior_text(
        "xyzw", "F32003", [5, 77, 1234, 9, 20000, 31002])), 3),
    lambda: load_complex("family", PrimeField(5), 6, q=-1),
], ids=["ext4", "family"])
@pytest.mark.parametrize("fault", ["top", "middle"])
def test_packed_keys_keep_every_term_apart(make, fault):
    # the checks pack each term's key fields into one int over the letters
    # (L), the largest generator count (B), the degrees and the word ids;
    # ext4 through degree 3 has L = 5 letters against 1 and 4 generators in
    # degrees 0 and 1, family at N = 6 has up to B = 8 generators against
    # L = 5 letters.  Double each scalar c(n, r, v), v = 0..n, in turn, of
    # the top degree's last generator or of one in the middle: d*d=0, the
    # dg identity, coassociativity and delta iota = iota d fail where the
    # tuple-keyed references fail, with their witnesses, and each failing
    # lhs - rhs holds the references' terms, none merged with another
    paired, seen = {D_SQUARED, DG_COMPAT, COASSOC}, set()
    N = make().N
    n = N if fault == "top" else (N + 1) // 2
    for v in range(n + 1):
        kx = make()
        letters = kx.quiver.num_vertices + kx.quiver.num_arrows
        counts = [kx.count(m) for m in range(N + 1)]
        assert (letters, counts) in [(5, [1, 4, 10, 20]), (5, [2, 3, 4, 5, 6, 7, 8])]
        double_scalar(kx, n, kx.count(n) - 1 if fault == "top" else kx.count(n) // 2, v)
        failures = [f for f in kx.verify_resolution().failures if f[0] != COUNIT]
        sides = [f for f in reference_sides(kx, N) if f[0] in paired] + _path_iota_sides(kx)
        assert failures == [(name, n2, r, diff_witness(kx.quiver, lhs, rhs))
                            for name, n2, r, lhs, rhs in sides], v
        sums = {key: terms for key, terms in _packed_sums(kx).items() if key[0] != COUNIT}
        assert sums == {(name, n2, r): (lhs - rhs).terms
                        for name, n2, r, lhs, rhs in sides}, v
        seen |= {f[0] for f in failures}
    assert seen == paired | {IOTA}


def _corruptible(name):
    """A degree-4 complex with every differential and scalar slice cached,
    so that a corrupted slice reaches the diagonal and nothing else."""
    return _cached(load_complex("short", QQ, 4) if name == "short"
                   else load_complex("family", PrimeField(5), 4, q=-1))


def _cached(kx):
    """kx with every differential and scalar slice cached."""
    for n in range(kx.N + 1):
        for i in range(kx.count(n)):
            if n:
                kx._diff_eps(n, i)
            for v in range(n + 1):
                kx.c(n, i, v)
    return kx


def _corrupted(field, terms, key, mode):
    out = dict(terms)
    if mode == "scale":
        out[key] = mul(field, field(2), out[key])
    else:
        del out[key]
    return out


@pytest.mark.parametrize("name", ["short", "family"])
def test_delta_identities_catch_every_corrupt_scalar(name):
    # scale or drop each c_pq(n, i, v) in turn: coassociativity and the dg
    # identity always notice, a counit law exactly when the split is 0 or n
    kx = _corruptible(name)
    cases = 0
    for n in range(kx.N + 1):
        for v in range(n + 1):
            rows = kx.comult._cache[(n, v)]
            for i, row in enumerate(rows):
                for key in row:
                    for mode in ("scale", "drop"):
                        rows[i] = _corrupted(kx.field, row, key, mode)
                        kx._diag_cache.clear()
                        report = kx.verify_resolution()
                        rows[i] = row
                        failures = report.failures
                        expected = {COASSOC, DG_COMPAT} | ({COUNIT} if v in (0, n) else set())
                        case = (n, v, i, key, mode)
                        assert {f[0] for f in failures} == expected, case
                        assert {f[0] for f in failures} <= set(report.checked), case
                        assert all(f[1:3] == (n, i) for f in failures if f[0] == COUNIT), case
                        assert all("Path(" not in f[3] for f in failures), case
                        cases += 1
    kx._diag_cache.clear()
    assert kx.verify_resolution().ok
    assert cases == {"short": 70, "family": 170}[name]


@pytest.mark.parametrize("name", ["short", "family"])
def test_differential_identities_catch_every_corrupt_term(name):
    # scale or drop each term of each d(eps^n_i): exactly d*d=0, the dg
    # identity and delta iota = iota d notice, each at (n, i) itself
    kx = _corruptible(name)
    cases = 0
    for n in range(1, kx.N + 1):
        for i in range(kx.count(n)):
            good = kx._diff_cache[(n, i)]
            for key in good.terms:
                for mode in ("scale", "drop"):
                    kx._diff_cache[(n, i)] = BimoduleElement(
                        kx.field, n - 1, _corrupted(kx.field, good.terms, key, mode))
                    report = kx.verify_resolution()
                    kx._diff_cache[(n, i)] = good
                    failures, case = report.failures, (n, i, key, mode)
                    assert {f[0] for f in failures} == {D_SQUARED, DG_COMPAT, IOTA}, case
                    assert {f[0] for f in failures} <= set(report.checked), case
                    assert {f[0] for f in failures if f[1:3] == (n, i)} == {
                        D_SQUARED, DG_COMPAT, IOTA}, case
                    assert all("Path(" not in f[3] for f in failures), case
                    cases += 1
    assert kx.verify_resolution().ok
    assert cases == {"short": 44, "family": 96}[name]


@pytest.mark.parametrize("name, field, q", [
    ("short", QQ, None), ("short", PrimeField(5), None),
    ("family", QQ, 2), ("family", PrimeField(5), -1),
], ids=["short", "short-F5", "family-q=2", "family-q=-1-F5"])
def test_identity_checks_on_letters_match_the_path_reference(name, field, q):
    # scale or drop each term of each d(eps^n_i), then each c_pq of each
    # slice, through degree 3: d*d=0, the dg identity, coassociativity and
    # the counit laws on int letters report what the Path-keyed reference
    # reports, witnesses included
    kx = _cached(load_complex(name, field, 3, q=q))
    checked = {D_SQUARED, DG_COMPAT, COASSOC, COUNIT}

    def agree(case):
        got = [f for f in kx.verify_resolution().failures if f[0] in checked]
        want = reference_failures(kx, kx.N)
        assert want and got == want, case

    assert kx.verify_resolution().failures == reference_failures(kx, kx.N) == []
    cases = 0
    for n in range(1, kx.N + 1):
        for i in range(kx.count(n)):
            good = kx._diff_cache[(n, i)]
            for key in good.terms:
                for mode in ("scale", "drop"):
                    kx._diff_cache[(n, i)] = BimoduleElement(
                        field, n - 1, _corrupted(field, good.terms, key, mode))
                    agree((n, i, key, mode))
                    kx._diff_cache[(n, i)] = good
                    cases += 1
    for n in range(kx.N + 1):
        for v in range(n + 1):
            rows = kx.comult._cache[(n, v)]
            for i, row in enumerate(rows):
                for key in row:
                    for mode in ("scale", "drop"):
                        rows[i] = _corrupted(field, row, key, mode)
                        kx._diag_cache.clear()
                        agree((n, v, i, key, mode))
                        rows[i] = row
                        cases += 1
    kx._diag_cache.clear()
    assert kx.verify_resolution().ok
    assert cases == {"short": 76, "family": 150}[name]


def test_d_squared_keeps_the_generators_apart():
    # in A = k<x, y>/(x.x, x.y, y.x, y.y) every f^2 is one word a.b and
    # d(eps^2_ab) = a.eps_b + eps_a.b; E = eps_xy - eps_xx - eps_yy + eps_yx
    # has d(E) != 0, though its terms cancel word by word once the degree-1
    # generator is dropped from the key
    kx = KoszulComplex(parse_presentation(
        "field Q\nvertex 1\narrow x 1 1\narrow y 1 1\n"
        "relation x.x\nrelation x.y\nrelation y.x\nrelation y.y\n"), 3)
    e, index = kx.quiver.vertex_path(0), kx.cobasis.index[2]
    signs = {(0, 1): 1, (0, 0): -1, (1, 1): -1, (1, 0): 1}
    kx._diff_cache[(3, 0)] = BimoduleElement(QQ, 2, {
        (e, index[Path(0, word)], e): QQ(c) for word, c in signs.items()})
    failures = kx.verify_resolution().failures
    assert (D_SQUARED, 3, 0, "term (e1, eps^1_0, x): -1") in failures
    assert [f for f in failures if f[0] in (D_SQUARED, DG_COMPAT, COASSOC, COUNIT)] == (
        reference_failures(kx, kx.N))


def test_counit_laws_ignore_non_composable_terms():
    # e_p ox eps^n_q is zero in K ox_Lambda K unless q starts at p (and
    # eps^n_p ox e_q unless p ends at q), so a diagonal term that pairs
    # non-composable generators must not reach either counit law
    kx = _cached(load_complex("family", PrimeField(5), 2, q=-1))
    cb, cases = kx.cobasis, 0
    for n in (1, 2):
        for r in range(kx.count(n)):
            for v in (0, n):
                rows = kx.comult._cache[(n, v)]
                good = rows[r]
                for p in range(kx.count(v)):
                    for q in range(kx.count(n - v)):
                        if cb.target(v, p) == cb.origin(n - v, q):
                            continue
                        rows[r] = {**good, (p, q): kx.field.one}
                        kx._diag_cache.clear()
                        failures = kx.verify_resolution().failures
                        rows[r] = good
                        assert COUNIT not in {f[0] for f in failures}
                        cases += 1
    kx._diag_cache.clear()
    assert kx.verify_resolution().ok
    assert cases == 50


def _path_iota_sides(kx):
    """The Path-keyed delta iota = iota d check, generator by generator:
    (IOTA, n, r, bar_delta of iota, iota of d) where the two differ."""
    out = []
    for n in range(1, kx.N + 1):
        for r in range(kx.count(n)):
            lhs = kx.bar_delta(kx.iota(n, r))
            rhs = kx.iota_bimodule(kx._diff_eps(n, r))
            if lhs != rhs:
                out.append((IOTA, n, r, lhs, rhs))
    return out


def _path_iota_failures(kx):
    return [(name, n, r, diff_witness(kx.quiver, lhs, rhs))
            for name, n, r, lhs, rhs in _path_iota_sides(kx)]


def _iota_failures(kx):
    failures = []
    kx._check_iota(kx.N, kx._letter_view(kx.N), [], failures)
    return failures


@pytest.mark.parametrize("name", ["short", "family"])
def test_iota_check_on_codes_matches_the_path_reference(name):
    # scale or drop each term of each d(eps^n_i), then each word of each
    # f^n_i in the cobasis' one word store, which the codes are and the
    # letters of iota are decoded from: the code comparison fails at
    # exactly the generators where the Path vectors differ, and
    # _check_iota reports them with the Path vectors' witnesses
    kx = _corruptible(name)
    f, cb = kx.field, kx.cobasis
    # spells every degree through N, so that a corrupted word reaches no
    # degree spelled from it
    assert _iota_failures(kx) == _path_iota_failures(kx) == []
    assert len(cb._levels) == kx.N + 1
    term_cases, word_cases, caught = 0, 0, 0
    for n in range(1, kx.N + 1):
        for i in range(kx.count(n)):
            good = kx._diff_cache[(n, i)]
            for key in good.terms:
                for mode in ("scale", "drop"):
                    kx._diff_cache[(n, i)] = BimoduleElement(
                        f, n - 1, _corrupted(f, good.terms, key, mode))
                    want = _path_iota_failures(kx)
                    assert [w[1:3] for w in want] == [(n, i)], (n, i, key, mode)
                    assert _iota_failures(kx) == want, (n, i, key, mode)
                    kx._diff_cache[(n, i)] = good
                    term_cases += 1
    for n in range(kx.N + 1):
        for i in range(kx.count(n)):
            codes = cb.codes(n, i)
            for code in codes:
                for mode in ("scale", "drop"):
                    cb._levels[n][i] = _corrupted(f, codes, code, mode)
                    want = _path_iota_failures(kx)
                    assert _iota_failures(kx) == want, (n, i, code, mode)
                    cb._levels[n][i] = codes
                    caught += bool(want)
                    word_cases += 1
    assert _iota_failures(kx) == _path_iota_failures(kx) == []
    # every corrupted word is caught somewhere (at (n, i) itself, or at the
    # generators one degree up whose d reads f^n_i)
    assert caught == word_cases
    assert (term_cases, word_cases) == {"short": (44, 30), "family": (96, 72)}[name]


@pytest.mark.parametrize("name", ["short", "family"])
def test_iota_check_on_codes_catches_a_generator_outside_the_relations(name):
    # spell f^2_i as a normal word a.b of A at its vertices, with the
    # differential a.eps_b + eps_a.b that the scalars of that word would
    # give: both match the outer merges of delta iota, so only the middle
    # merge (a normal, nonzero a.b) fails
    def load():
        return (load_complex("short", QQ, 2) if name == "short"
                else load_complex("family", PrimeField(5), 2, q=-1))

    base = load()
    f, q, cb = base.field, base.quiver, base.cobasis
    cases = 0
    for i in range(cb.count(2)):
        for word in base.rs.basis_words(2, *cb.o(2, i)):
            kx = load()
            kx.cobasis.codes(2, i)  # spells degrees 1 and 2
            kx.cobasis._levels[2][i] = {q.code(word): f.one}
            a, b = word.arrows
            kx._diff_cache[(2, i)] = BimoduleElement(f, 1, {
                (q.arrow_path(a), b, q.vertex_path(q.arrow_t[b])): f.one,
                (q.vertex_path(q.arrow_o[a]), a, q.arrow_path(b)): f.one})
            want = _path_iota_failures(kx)
            assert want == [(IOTA, 2, i, f"term (e{q.vertex_names[cb.origin(2, i)]}, "
                                         f"{q.format_path(word)}, "
                                         f"e{q.vertex_names[cb.target(2, i)]}): {f.format(f(-1))}")]
            assert _iota_failures(kx) == want
            cases += 1
    assert cases == {"short": 4, "family": 4}[name]


def test_iota_check_computes_the_middle_merges_above_a_failed_generator():
    # f^2_0 := y.y with d(eps^2_0) = y.eps_y + eps_y.y, and f^3_0 := y.y.y
    # with d(eps^3_0) = y.eps^2_0 - eps^2_0.y: both outer identities of (3, 0)
    # hold, and its middle merges y.y do not; they can be inherited from no
    # generator, for its one feeder (2, 0) fails, so the code check computes
    # them and reports (3, 0) as the Path vectors do
    kx = _cached(load_complex("short", QQ, 3))
    f, q, cb = kx.field, kx.quiver, kx.cobasis
    cb.codes(3, 0)  # spells degrees 1 to 3
    e, y = q.vertex_path(0), q.arrow_path(q.arrow_index["y"])
    jy = next(j for j in range(kx.count(1)) if cb.codes(1, j) == {q.code(y): f.one})
    cb._levels[2][0] = {q.code(Path(0, y.arrows * 2)): f.one}
    cb._levels[3][0] = {q.code(Path(0, y.arrows * 3)): f.one}
    kx._diff_cache[(2, 0)] = BimoduleElement(f, 1, {(y, jy, e): f.one, (e, jy, y): f.one})
    kx._diff_cache[(3, 0)] = BimoduleElement(f, 2, {(y, 0, e): f.one, (e, 0, y): f(-1)})
    want = _path_iota_failures(kx)
    assert [w[1:3] for w in want] == [(2, 0), (3, 0), (3, 1)]
    assert _iota_failures(kx) == want


@pytest.mark.parametrize("make", [
    lambda: KoszulComplex(parse_presentation(quantum_exterior_text(
        "xyz", "F32003", [17, 2024, 31999])), 5),
    lambda: KoszulComplex(parse_presentation(quantum_exterior_text(
        "xyzw", "F32003", [5, 77, 1234, 9, 20000, 31002])), 5),
    lambda: zigzag_complex(5),
], ids=["ext3-F32003", "ext4-F32003", "zigzag"])
def test_iota_check_inherits_the_middle_merges_beyond_the_presets(make):
    # every generator agrees on codes, so degrees 3 to 5 inherit their
    # middle merges, and the Path vectors agree with that at each of them
    kx = make()
    assert _iota_failures(kx) == _path_iota_failures(kx) == []


def test_iota_check_keys_terms_with_letters_on_both_sides():
    # a term u . eps_j . v of d with arrows (or vertices) on both sides spells
    # a bar word u ox w ox v that no word of delta iota spells; the code
    # check keys it (u, code of w, v) itself and names it when it survives,
    # as the Path vectors do, and reports nothing when two such terms cancel
    # in the bar (here a.eps^0_0.b - a.eps^0_1.b, both spelling a ox b and
    # both keyed with the middle code 0)
    def injected(n, i, extra):
        kx = load_complex("family", PrimeField(5), 2, q=-1)
        good = kx._diff_eps(n, i)
        kx._diff_cache[(n, i)] = BimoduleElement(kx.field, n - 1, {**good.terms, **extra})
        return kx

    q = load_complex("family", PrimeField(5), 2, q=-1).quiver
    e1, a, b, c = q.vertex_path(0), q.arrow_path(0), q.arrow_path(1), q.arrow_path(2)
    cases = [(2, 3, {(a, 0, c): 1}, "term (a, a, c): 4"),
             (2, 0, {(e1, 0, e1): 1}, "term (e1, a, e1): 4"),
             (1, 0, {(a, 0, b): 1}, "term (a, b): 4")]
    for n, i, extra, witness in cases:
        kx = injected(n, i, extra)
        assert _iota_failures(kx) == _path_iota_failures(kx) == [(IOTA, n, i, witness)]
    kx = injected(1, 0, {(a, 0, b): 1, (a, 1, b): -1})
    assert kx.bar_delta(kx.iota(1, 0)) == kx.iota_bimodule(kx._diff_eps(1, 0))
    assert _iota_failures(kx) == []


# -- exactness: K resolves A, weight by weight ------------------------------------


def _k_basis(kx, n, weight, dropped):
    """The basis u . eps^n_i . v of K_n in weight |u| + n + |v|, leaving out
    the generators (n, i) in dropped."""
    basis_words, target = kx.rs.basis_words, kx.quiver.path_target
    out = []
    for i in range(kx.count(n)):
        if (n, i) in dropped:
            continue
        o, t = kx.cobasis.o(n, i)
        for a in range(weight - n + 1):
            for u in basis_words(a):
                if target(u) == o:
                    out += [(u, i, v) for v in basis_words(weight - n - a) if v.o == t]
    return out


def _dim_and_rank(kx, n, weight, dropped):
    """(dim K_n, rank d_n) on the weight slice; d_0 is the augmentation."""
    basis = _k_basis(kx, n, weight, dropped)
    row_of, entries = {}, {}
    for j, (u, i, v) in enumerate(basis):
        image = {}
        if n:
            kx.sandwich_into(image, u, kx._diff_eps(n, i).terms, v, kx.field.one)
        else:
            image = kx.rs.word_product(u, v).terms
        for key, c in image.items():
            entries[(row_of.setdefault(key, len(row_of)), j)] = c
    return len(basis), rank(Matrix(kx.field, len(row_of), len(basis), entries))


def exactness_failures(kx, max_weight, dropped=frozenset()):
    """Where K -> A -> 0 is not exact in weights up to max_weight.

    d preserves the weight |u| + n + |v| and each weight slice is finite,
    so exactness at K_n is dim K_n - rank d_n = rank d_{n+1}, checked for
    n <= min(weight, N - 1) and reported as (weight, n, dim K_n, rank d_n,
    rank d_{n+1}); the augmentation must also map onto A in each weight,
    reported as (weight, "onto", dim A, rank d_0).  This reads only A, the
    differential and the vertex pairs, so it does not rely on A^!.
    """
    failures = []
    for weight in range(max_weight + 1):
        top = min(weight, kx.N - 1)
        dims, ranks = zip(*(_dim_and_rank(kx, n, weight, dropped) for n in range(top + 2)))
        for n in range(top + 1):
            if dims[n] - ranks[n] != ranks[n + 1]:
                failures.append((weight, n, dims[n], ranks[n], ranks[n + 1]))
        dim_a = len(kx.rs.basis_words(weight))
        if ranks[0] != dim_a:
            failures.append((weight, "onto", dim_a, ranks[0]))
    return failures


@pytest.mark.parametrize("name, field, q", [
    ("short", QQ, None), ("family", QQ, 1), ("family", QQ, 2), ("family", PrimeField(5), -1),
], ids=["short", "family-q=1", "family-q=2", "family-q=-1-F5"])
def test_k_is_exact_in_every_weight_up_to_8(name, field, q):
    kx = load_complex(name, field, 8, q=q)
    assert exactness_failures(kx, 8) == []


@pytest.mark.parametrize("dropped", [2, 9])
def test_exactness_catches_a_dropped_top_generator(family8, dropped):
    # without f^8_2 or f^8_9, d_8 no longer reaches the kernel of d_7 in
    # weight 8: an acyclicity defect, which no identity that
    # verify_resolution checks looks at
    assert exactness_failures(family8, 8, {(8, dropped)}) == [(8, 7, 42, 32, 9)]


def test_exactness_catches_a_scaled_scalar():
    # doubling one c_pq(3, 1, 1) before d(eps^3_1) is built changes d_3:
    # its rank exceeds the kernel of d_2 (so d_2 d_3 != 0), and the kernel
    # of d_3 no longer matches the image of d_4.  Every slice is built
    # first, so that the doubled row reaches no slice above it
    kx = load_complex("family", QQ, 5, q=1)
    for n in range(kx.N + 1):
        for r in range(n + 1):
            kx.c(n, 0, r)
    row = dict(kx.c(3, 1, 1))
    key = next(iter(row))
    row[key] = QQ(2) * row[key]
    kx.comult._cache[(3, 1)][1] = row
    assert exactness_failures(kx, 6) == [
        (4, 2, 28, 12, 18), (4, 3, 22, 18, 6), (5, 2, 21, 4, 19), (5, 3, 37, 19, 20)]
