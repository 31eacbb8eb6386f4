"""Generator towers f^n_i and their comultiplicative scalars.

The package reads both off the quadratic dual A^!.  Its generators are
compared, as vectors and in the same order, with the closed-form towers of
the presets, with the intersection tower the package built before (kept in
tower_reference.py) and with a reference that intersects by one [U | -V]
kernel per degree.  Its scalar tables are checked against the defining
identity in kQ (by direct expansion), against independently coded closed
formulas for the two stock algebras, against the pivot-coordinate table of
tower_reference.py on the intersection tower, and slice by slice, rows and
order, against a reference that splits and joins Path words.  The two
references must also raise the same errors on corrupted generators.  The
right action on A^!, and the normal forms of A and A^!, are checked against
leftmost Path rewriting (tower_reference.py).
"""

import random
import sys
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from koszulgerst.algfile import parse_presentation
from koszulgerst.errors import InconsistentBasis, NotConfluent
from koszulgerst.fields import QQ, PrimeField
from koszulgerst.koszul import ComultTable, build_koszul_basis
from koszulgerst.linalg import Matrix, echelon_basis, nullspace_basis
from koszulgerst.presets import load_complex, load_presentation
from koszulgerst.quiver import Path, PathVector, QuadraticPresentation, Quiver
from koszulgerst.resolution import KoszulComplex
from koszulgerst.rewriting import RewriteSystem, build_rewrite_system

from linalg_reference import add, mul, rref, single
import tower_reference
from test_products_and_scalars import random_path
from tower_reference import (PivotComultTable, ReferenceCobasis, _intersect, _split_blocks,
                             family_cobasis, free_multiply, intersection_tower,
                             leftmost_nf_path, normal_form_right_action, path_spelling,
                             short_cobasis)


def test_short_tower_closed_form(short8):
    cb = short8.cobasis
    assert [cb.count(n) for n in range(9)] == [1] + [2] * 8
    for n in range(1, 9):
        assert cb.f(n, 0) == single(QQ, Path(0, (0,) * n))
        expected = {Path(0, (0,) * i + (1,) + (0,) * (n - 1 - i)): QQ(1)
                    for i in range(n)}
        assert cb.f(n, 1) == PathVector(QQ, expected)


def test_family_degree3_recursion(family8):
    cb = family8.cobasis
    assert [cb.count(n) for n in range(9)] == [2, 3] + [n + 2 for n in range(2, 9)]
    q = family8.quiver
    a = single(QQ, Path(0, (0,)))
    b = single(QQ, Path(0, (1,)))
    c = single(QQ, Path(0, (2,)))
    # q = 1: f^3_s = f^2_{s-1} b + (-1)^s f^2_s a between the pure powers
    assert cb.f(3, 0) == free_multiply(q, free_multiply(q, a, a), a)
    assert cb.f(3, 1) == free_multiply(q, cb.f(2, 0), b) - free_multiply(q, cb.f(2, 1), a)
    assert cb.f(3, 2) == free_multiply(q, cb.f(2, 1), b) + free_multiply(q, cb.f(2, 2), a)
    assert cb.f(3, 3) == free_multiply(q, free_multiply(q, b, b), b)
    assert cb.f(3, 4) == free_multiply(q, free_multiply(q, a, a), c)


@pytest.mark.parametrize("name,q", [("short", None), ("family", 1),
                                    ("family", -1), ("family", 2)])
def test_generic_intersection_matches_golden_tower(name, q):
    # the dual basis, the intersection tower and the closed form agree
    # generator for generator (assert_tower_matches_reference compares the
    # first two and their scalars)
    pres = load_presentation(name, QQ, q=q)
    golden = short_cobasis(pres, 6) if name == "short" else family_cobasis(pres, 6)
    assert build_koszul_basis(build_rewrite_system(pres), 6).elements == golden.elements
    assert_tower_matches_reference(pres, 6)


@pytest.mark.parametrize("name, field, q", [
    ("short", QQ, None), ("family", QQ, 1), ("family", QQ, 2), ("family", PrimeField(5), -1),
], ids=["short", "family-q=1", "family-q=2", "family-q=-1-F5"])
def test_dual_basis_matches_the_closed_forms_through_degree_10(name, field, q):
    pres = load_presentation(name, field, q=q)
    golden = (short_cobasis if name == "short" else family_cobasis)(pres, 10)
    cobasis = build_koszul_basis(build_rewrite_system(pres), 10)
    assert cobasis.elements == golden.elements
    assert_same_scalars(cobasis, golden, 8)


def test_no_relations_tower_terminates():
    quiver = Quiver(["1"], [("x", "1", "1")])
    pres = QuadraticPresentation(quiver, [], field=QQ)
    cb = build_koszul_basis(build_rewrite_system(pres), 4)
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
    levels[3][0] = single(QQ, Path(0, (1, 1, 1)))
    broken = ReferenceCobasis(pres.quiver, levels)
    table = PivotComultTable(pres.quiver, broken, QQ)
    with pytest.raises(InconsistentBasis):
        table.scalars(3, 0, 1)


@pytest.mark.parametrize("name", ["short", "family"])
def test_scaled_word_is_caught_at_every_split_it_leaves(name):
    # Scaling the coefficient of one word w = u v of f^n_i adds a multiple of
    # the monomial w, so the row at split r still re-expands exactly iff u
    # and v lie in W_r and W_{n-r}.  A monomial lies in a reduced echelon
    # span only as a one-word generator, so every other split must raise.
    # In degree 2 both halves are arrows, so only degrees 3 and 4 can miss.
    # The package reads its scalars from A^! and has no re-expansion; this
    # runs on the pivot-coordinate reference, which does.
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
                terms[w] = mul(f, f(2), terms[w])
                levels[n][i] = PathVector(f, terms)
                table = PivotComultTable(q, ReferenceCobasis(q, levels), f)
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


@pytest.mark.parametrize("n, word", [(2, Path(0, (2, 0))), (1, Path(1, (0,)))],
                         ids=["c.a", "a-from-vertex-2"])
def test_cobasis_rejects_words_that_are_not_paths(family8, n, word):
    # c: 1 -> 2 does not end where a starts, and a does not start at vertex 2;
    # both words are uniform by their recorded origin, so only the path check
    # of the reference cobasis, which the negative controls here feed, catches them
    levels = [list(level) for level in family8.cobasis.elements[:3]]
    levels[n][0] = single(QQ, word)
    with pytest.raises(InconsistentBasis, match="has a word that is not a path"):
        ReferenceCobasis(family8.quiver, levels)


def test_codes_spell_each_word_once():
    q = Quiver(["1", "2", "3"], [("x", "1", "1"), ("y", "1", "2"), ("z", "2", "1")])
    assert [q.code(q.vertex_path(v)) for v in range(3)] == [0, 1, 2]
    assert q.code(Path(0, (1, 2, 0))) == (1 * 3 + 2) * 3 + 0
    # relations 2 x.x - y.z, x.y, z.x, z.y: A^! has the one relation
    # y.z + 1/2 x.x, so f^2_0, dual to x.x, is x.x - 1/2 y.z, spelled x.x first
    monomials = [Path(0, (0, 1)), Path(1, (2, 0)), Path(1, (2, 1))]
    rels = [PathVector(QQ, {Path(0, (0, 0)): QQ(2), Path(0, (1, 2)): QQ(-1)}),
            *(single(QQ, w) for w in monomials)]
    cb = build_koszul_basis(build_rewrite_system(QuadraticPresentation(q, rels, field=QQ)), 2)
    assert cb.words[2] == [Path(0, (0, 0)), Path(0, (0, 1)), Path(1, (2, 0)), Path(1, (2, 1))]
    assert cb.codes(0, 2) == {2: QQ(1)} and cb.codes(1, 1) == {1: QQ(1)}
    assert list(cb.codes(2, 0).items()) == [(0 * 3 + 0, QQ(1)), (1 * 3 + 2, QQ("-1/2"))]
    assert cb.codes(2, 0) is cb.codes(2, 0)
    assert q.decode((1 * 3 + 2) * 3 + 0, 3) == (1, 2, 0)
    assert q.decode((1 * 3 + 2) * 3 + 0, 3, 0) == Path(0, (1, 2, 0))
    assert q.decode(2, 0) == () and q.decode(2, 0, 2) == q.vertex_path(2)
    assert list(cb.f(2, 0).terms.items()) == [(Path(0, (0, 0)), QQ(1)),
                                              (Path(0, (1, 2)), QQ("-1/2"))]


def assert_codes_round_trip(cobasis):
    """Quiver.decode inverts Quiver.code on every normal word of A^!, and
    f(n, i), decoded from the codes, is the Path spelling of
    tower_reference, term for term and in the same order."""
    q = cobasis.quiver
    for n, level in enumerate(cobasis.words):
        for w in level:
            assert q.decode(q.code(w), n) == w.arrows
            assert q.decode(q.code(w), n, w.o) == w
    for n, level in enumerate(path_spelling(cobasis)):
        assert len(level) == cobasis.count(n)
        for i, want in enumerate(level):
            assert list(cobasis.f(n, i).terms.items()) == list(want.terms.items()), (n, i)


@pytest.mark.parametrize("name, q", [("family", 1), ("family", -1), ("short", None)])
def test_codes_decode_to_the_words_and_spell_the_paths(name, q):
    rs = build_rewrite_system(load_presentation(name, QQ, q=q))
    assert_codes_round_trip(build_koszul_basis(rs, 8))


@pytest.mark.parametrize("n", [-1, 9])
def test_cobasis_refuses_degrees_outside_its_range(family8, n):
    # a negative degree must not wrap around to the top level
    cb = family8.cobasis
    with pytest.raises(InconsistentBasis, match=f"degree {n} is outside"):
        cb.f(n, 0)
    with pytest.raises(InconsistentBasis, match=f"degree {n} is outside"):
        cb.codes(n, 0)



@pytest.mark.parametrize("m", [-1, 8, 9])
def test_right_action_refuses_degrees_outside_its_range(family8, m):
    # the action on A^!_m lands in degree m + 1, so m = max_degree is out
    # too, and a negative m must not wrap around to the top level
    with pytest.raises(InconsistentBasis, match=f"right action on degree {m} is outside 0..7"):
        family8.cobasis.right_action(m)


def assert_right_action_matches_reference(cobasis):
    """right_action(m), from A^!'s RewriteSystem.times, against the leftmost
    rewriting of tower_reference, for every m < max_degree: the same images
    as dicts, keyed by the arrows in increasing order."""
    for m in range(cobasis.max_degree):
        got = cobasis.right_action(m)
        want = normal_form_right_action(cobasis, m)
        assert len(got) == len(want) == cobasis.count(m)
        for j, (by_arrow, want_by_arrow) in enumerate(zip(got, want)):
            assert list(by_arrow) == sorted(by_arrow), (m, j)
            assert ({a: dict(images) for a, images in by_arrow.items()}
                    == {a: dict(images) for a, images in want_by_arrow.items()}), (m, j)


ACTION_CASES = pytest.mark.parametrize("make, N", [
    (lambda: load_presentation("family", QQ, q=1), 10),
    (lambda: load_presentation("family", QQ, q=-1), 10),
    (lambda: load_presentation("family", QQ, q=2), 10),
    (lambda: load_presentation("family", PrimeField(5), q=-1), 10),
    (lambda: load_presentation("short", QQ), 10),
    (lambda: parse_presentation(quantum_exterior_text("xyz", "F32003", [17, 2024, 31999])), 10),
    (lambda: parse_presentation(quantum_exterior_text(
        "xyzw", "F32003", [5, 77, 1234, 9, 20000, 31002])), 7),
], ids=["family-q=1", "family-q=-1", "family-q=2", "family-q=-1-F5", "short", "ext3-F32003",
        "ext4-F32003"])


@ACTION_CASES
def test_right_action_matches_the_normal_form_products(make, N):
    # the exterior algebras' commutation rules send w_j . a through further
    # rules of the same degree before it is normal
    assert_right_action_matches_reference(build_koszul_basis(build_rewrite_system(make()), N))


def nf_path_mismatches(rs, seed):
    """The random paths of length <= 6 whose rs.nf_path differs from the
    leftmost rewriting of tower_reference."""
    rng, memo = random.Random(seed), {}
    paths = [random_path(rs.quiver, rng, rng.randrange(7)) for _ in range(150)]
    return [p for p in paths if rs.nf_path(p) != leftmost_nf_path(rs.rules, rs.field, p, memo)]


@ACTION_CASES
def test_nf_path_matches_leftmost_rewriting(make, N):
    # A's normal forms fold each path through RewriteSystem.times, the
    # recursion that also gives A^!'s right action; both rewrite systems
    # are checked against rewriting Paths at the leftmost reducible pair
    rs = build_rewrite_system(make())
    dual = build_koszul_basis(rs, N).dual
    assert nf_path_mismatches(rs, "A") == [] and nf_path_mismatches(dual, "A^!") == []


def test_a_corrupted_times_entry_fails_the_sweep():
    # negative control: one memoised w_j . a that a rule rewrote, with a
    # doubled coefficient; every other such entry is dropped, so each normal
    # form that needs it reads it
    rs = build_rewrite_system(parse_presentation(
        quantum_exterior_text("xyz", "F32003", [17, 2024, 31999])))
    assert nf_path_mismatches(rs, 0) == []
    ruled = [(by_arrow, a) for m, level in enumerate(rs._times) for j, by_arrow in enumerate(level)
             for a in by_arrow if m and (rs._splits[m][j][1], a) in rs.rules]
    by_arrow, a = next((by_arrow, a) for by_arrow, a in ruled if by_arrow[a])
    (k, c), *rest = by_arrow[a]
    for other, b in ruled:
        del other[b]
    by_arrow[a], rs._products = [(k, rs.field(c + c)), *rest], {}
    assert nf_path_mismatches(rs, 0) != []


def test_non_confluent_dual_is_named_in_the_error():
    # A is not confluent either, so its rewrite system, the one rule
    # x.x -> 1/2 y.z of the relation 2 x.x - y.z, is built without A's check;
    # the overlap y.z.x is a word of A^!'s rewrite system
    q = Quiver(["1", "2"], [("x", "1", "1"), ("y", "1", "2"), ("z", "2", "1")])
    rel = PathVector(QQ, {Path(0, (0, 0)): QQ(2), Path(0, (1, 2)): QQ(-1)})
    rs = RewriteSystem(QuadraticPresentation(q, [rel], field=QQ),
                       {(0, 0): PathVector(QQ, {Path(0, (1, 2)): QQ("1/2")})})
    with pytest.raises(NotConfluent) as err:
        build_koszul_basis(rs, 3)
    assert str(err.value) == ("quadratic dual A^! is not confluent: "
                              "overlap y.z.x resolves to -1/2*x.x.x and 0")


def test_building_a_complex_puts_r_in_echelon_form_once(monkeypatch):
    # build_rewrite_system solves R's reduced echelon basis for A's rules,
    # and build_koszul_basis reads R^perp off those rules; the second
    # elimination is R^perp's, for A^!'s rules
    pres, seen = load_presentation("family", QQ, q=1), []

    def counted(vectors, order_key):
        seen.append(vectors)
        return echelon_basis(vectors, order_key)

    for name, module in list(sys.modules.items()):
        if (name.startswith("koszulgerst.")
                and getattr(module, "echelon_basis", None) is echelon_basis):
            monkeypatch.setattr(module, "echelon_basis", counted)
    KoszulComplex(pres, 4)
    assert [vectors is pres.relations for vectors in seen] == [True, False]


def test_scalars_and_spelling_multiply_only_composable_words():
    # a slice and the spelling of f^n read the right action of the arrows on
    # A^!, A^!'s RewriteSystem.times on word indices: no word is multiplied
    # after the build, so A^!'s word products stay those of its confluence
    # check, and only a word and an arrow it ends at are multiplied; 56 of
    # the 108 products w_j . a rewrite by a rule, 28 to zero
    kx = load_complex("family", QQ, 8, q=1)
    cb = kx.cobasis
    rs = build_rewrite_system(load_presentation("family", QQ, q=1))
    built = dict(build_koszul_basis(rs, 8).dual._products)
    assert cb.dual._products == built
    for n in range(9):
        for r in range(n + 1):
            kx.c(n, 0, r)
            assert cb.dual._products == built
    assert kx.verify_resolution().ok
    assert cb.dual._products == built
    q, rules = kx.quiver, cb.dual.rules
    products = [(w, a, images) for m, action in sorted(cb._right.items())
                for w, by_arrow in zip(cb.words[m], action) for a, images in by_arrow.items()]
    assert [(w, a) for w, a, _ in products if q.path_target(w) != q.arrow_o[a]] == []
    ruled = [images for w, a, images in products if w.arrows and (w.arrows[-1], a) in rules]
    assert (len(products), len(ruled), sum(not images for images in ruled)) == (108, 56, 28)


# -- the comult table against the Path-word reference ------------------------------


class ReferenceComultTable:
    """The comult table with Path words: splits by slicing arrow tuples,
    keys (origin, arrows) tuples and re-expands by concatenating them."""

    def __init__(self, quiver, cobasis, field):
        self.quiver = quiver
        self.cobasis = cobasis
        self.field = field
        self._cache = {}
        self._pivots = {}

    def scalars(self, n, i, r):
        return self._slice(n, r)[i]

    def _pivot_transform(self, r):
        got = self._pivots.get(r)
        if got is not None:
            return got
        f, level = self.field, self.cobasis.elements[r]
        col_of = {}
        for vec in level:
            for path in vec.terms:
                col_of.setdefault(path, len(col_of))
        width = len(col_of)
        rows = [{**{col_of[path]: c for path, c in vec.terms.items()}, width + p: f.one}
                for p, vec in enumerate(level)]
        pivots = rref(rows, width + len(level), f, naug=len(level))
        if len(pivots) < len(level):
            raise InconsistentBasis(f"degree-{r} generators are linearly dependent")
        words = list(col_of)
        got = {words[col]: {c - width: v for c, v in rows[j].items() if c >= width}
               for j, col in enumerate(pivots)}
        self._pivots[r] = got
        return got

    def _slice(self, n, r):
        got = self._cache.get((n, r))
        if got is not None:
            return got
        if not (0 <= r <= n <= self.cobasis.max_degree):
            raise InconsistentBasis(f"comult slice ({n},{r}) out of range")
        arrow_t, f, cb = self.quiver.arrow_t, self.field, self.cobasis
        left, right = self._pivot_transform(r), self._pivot_transform(n - r)
        rows = []
        for i in range(cb.count(n)):
            acc = {}
            for w, coeff in cb.f(n, i).terms.items():
                head = w.arrows[:r]
                t_left = left.get((w.o, head))
                if t_left is None:
                    continue
                t_right = right.get((arrow_t[head[-1]] if head else w.o, w.arrows[r:]))
                if t_right is None:
                    continue
                for p, cp in t_left.items():
                    cp = mul(f, coeff, cp)
                    for qq, cq in t_right.items():
                        acc[(p, qq)] = add(f, acc.get((p, qq), f.zero), mul(f, cp, cq))
            row = {pq: c for pq, c in sorted(acc.items()) if c != f.zero}
            if self._expand(n, r, row) != cb.f(n, i).terms:
                raise InconsistentBasis(
                    f"no comultiplicative scalars for f^{n}_{i} at split r={r}")
            rows.append(row)
        self._cache[(n, r)] = rows
        return rows

    def _expand(self, n, r, row):
        f, cb = self.field, self.cobasis
        acc = {}
        for (p, qq), c in row.items():
            if cb.target(r, p) != cb.origin(n - r, qq):
                continue
            right = cb.f(n - r, qq).terms
            for u, cu in cb.f(r, p).terms.items():
                cu = mul(f, c, cu)
                for v, cv in right.items():
                    w = (u.o, u.arrows + v.arrows)
                    acc[w] = add(f, acc.get(w, f.zero), mul(f, cu, cv))
        return {w: c for w, c in acc.items() if c != f.zero}


def slice_or_error(table, n, r):
    """Every row of slice (n, r) as an item list, in order, or the error message."""
    try:
        return [list(table.scalars(n, i, r).items()) for i in range(table.cobasis.count(n))]
    except InconsistentBasis as exc:
        return f"InconsistentBasis: {exc}"


def assert_comult_matches_reference(cobasis, field, table=None):
    """Every slice of table, by default the package's ComultTable, against
    the Path-word reference on the same generators."""
    table = ComultTable(cobasis) if table is None else table
    reference = ReferenceComultTable(cobasis.quiver, cobasis, field)
    for n in range(cobasis.max_degree + 1):
        for r in range(n + 1):
            assert slice_or_error(table, n, r) == slice_or_error(reference, n, r), (n, r)


def assert_same_scalars(cobasis, reference_cobasis, N):
    """The package's scalars on cobasis against the pivot-coordinate
    reference on reference_cobasis, rows and order, through degree N."""
    table = ComultTable(cobasis)
    reference = PivotComultTable(cobasis.quiver, reference_cobasis, cobasis.dual.field)
    for n in range(N + 1):
        for r in range(n + 1):
            assert slice_or_error(table, n, r) == slice_or_error(reference, n, r), (n, r)


def test_comult_slices_match_reference_in_any_order():
    # slices are built from the slices below them on first use, so every
    # order of requests, and the sparse set a lift asks for, gives the
    # reference rows in the reference order
    N = 8
    cobasis = load_complex("family", QQ, N, q=1).cobasis
    reference = ReferenceComultTable(cobasis.quiver, cobasis, QQ)
    everything = [(n, r) for n in range(N + 1) for r in range(n + 1)]
    sparse = sorted({(m, r) for m in range(2, N + 1) for r in (1, m - 1, 2, m - 2)})
    orders = [random.Random(seed).sample(everything, len(everything)) for seed in range(3)]
    for order in orders + [sparse]:
        table = load_complex("family", QQ, N, q=1).comult
        for n, r in order:
            assert slice_or_error(table, n, r) == slice_or_error(reference, n, r), (n, r)
        # every requested slice is cached, and every other cached slice was
        # built on the way to a requested one of the same r above it
        assert set(order) <= set(table._cache)
        assert all(any(m < n and s == r for n, s in order)
                   for m, r in set(table._cache) - set(order))


def one_arrow_presentation():
    q = Quiver(["1"], [("x", "1", "1")])
    return QuadraticPresentation(q, [single(QQ, Path(0, (0, 0)))], field=QQ)


def isolated_vertex_presentation():
    # vertex 3 has no arrow: it is a degree-0 generator that no split meets
    q = Quiver(["1", "2", "3"], [("x", "1", "1"), ("y", "1", "2"), ("z", "2", "1")])
    rels = [single(QQ, Path(0, (0, 0))),
            PathVector(QQ, {Path(0, (1, 2)): QQ(1), Path(0, (0, 0)): QQ(-1)}),
            single(QQ, Path(1, (2, 1)))]
    return QuadraticPresentation(q, rels, field=QQ)


def zigzag_presentation():
    q = Quiver(["1", "2"], [("u", "1", "2"), ("v", "2", "1")])
    rels = [single(QQ, Path(0, (0, 1))), single(QQ, Path(1, (1, 0)))]
    return QuadraticPresentation(q, rels, field=QQ)


@pytest.mark.parametrize("name, field, q", [
    ("short", QQ, None),
    *[("family", f, q) for f in (QQ, PrimeField(5)) for q in (1, -1, 2)],
], ids=lambda v: str(getattr(v, "name", v)))
def test_comult_table_matches_reference_on_presets(name, field, q):
    N = 8 if name == "short" else 7
    cobasis = load_complex(name, field, N, q=q).cobasis
    assert_comult_matches_reference(cobasis, field)
    pres = load_presentation(name, field, q=q)
    assert_same_scalars(cobasis, intersection_tower(pres, 6), 6)


@pytest.mark.parametrize("make", [one_arrow_presentation, isolated_vertex_presentation],
                         ids=["one-arrow", "isolated-vertex"])
def test_comult_table_matches_reference_on_small_quivers(make):
    pres = make()
    assert build_koszul_basis(build_rewrite_system(pres), 6).count(6) > 0
    assert_tower_matches_reference(pres, 6)  # which compares the comult tables too


def pivot_table(cobasis, field):
    return PivotComultTable(cobasis.quiver, cobasis, field)


def test_comult_errors_match_reference(short8, family8):
    # the two references, on int codes and on Path words: a dependent level
    # and every one-word scaling of degrees 2-4 raise the same
    # InconsistentBasis, with the same message, at the same slices
    levels = [list(level) for level in short8.cobasis.elements[:4]]
    levels[2] = [levels[2][0], levels[2][1], levels[2][1].scale(QQ(2))]
    broken = ReferenceCobasis(short8.quiver, levels)
    assert_comult_matches_reference(broken, QQ, pivot_table(broken, QQ))
    raised = 0
    for kx in (short8, family8):
        f, q, cb = kx.field, kx.quiver, kx.cobasis
        for n in range(2, 5):
            for i in range(cb.count(n)):
                for w in cb.f(n, i).terms:
                    levels = [list(level) for level in cb.elements[:5]]
                    terms = dict(levels[n][i].terms)
                    terms[w] = mul(f, f(2), terms[w])
                    levels[n][i] = PathVector(f, terms)
                    broken = ReferenceCobasis(q, levels)
                    assert_comult_matches_reference(broken, f, pivot_table(broken, f))
                    raised += isinstance(slice_or_error(pivot_table(broken, f), n, 1), str)
    assert raised > 0


# -- the generator tower against the [U | -V] reference ---------------------------


def reference_intersect(field, span_u, span_v, order_key):
    """Basis of span(span_u) intersect span(span_v): one [U | -V] kernel."""
    if not span_u or not span_v:
        return []
    support = sorted({p for v in span_u + span_v for p in v.terms}, key=order_key)
    row_of = {p: i for i, p in enumerate(support)}
    nu, nv = len(span_u), len(span_v)
    entries = {}
    for j, vec in enumerate(span_u):
        for path, coeff in vec.terms.items():
            entries[(row_of[path], j)] = coeff
    for j, vec in enumerate(span_v):
        for path, coeff in vec.terms.items():
            entries[(row_of[path], nu + j)] = field.neg(coeff)
    A = Matrix(field, len(support), nu + nv, entries)
    vectors = []
    for ker in nullspace_basis(A):
        acc = {}
        for j in range(nu):
            if ker[j] != field.zero:
                for path, c in span_u[j].terms.items():
                    acc[path] = add(field, acc.get(path, field.zero), mul(field, c, ker[j]))
        vec = PathVector(field, acc)
        if not vec.is_zero():
            vectors.append(vec)
    return echelon_basis(vectors, order_key)


def reference_split_blocks(quiver, vectors, order_key):
    """Split a basis into (o, t)-blocks and re-eliminate each one."""
    blocks = {}
    for vec in vectors:
        parts = {}
        for path, coeff in vec.terms.items():
            parts.setdefault((path.o, quiver.path_target(path)), {})[path] = coeff
        for pair, terms in parts.items():
            blocks.setdefault(pair, []).append(PathVector(vec.field, terms))
    return [v for pair in sorted(blocks) for v in echelon_basis(blocks[pair], order_key)]


def split_inputs(pres, N):
    """The vector lists intersection_tower hands to _split_blocks, level by level."""
    seen, split = [], tower_reference._split_blocks

    def recording(quiver, vectors, order_key):
        seen.append(list(vectors))
        return split(quiver, vectors, order_key)

    with mock.patch.object(tower_reference, "_split_blocks", recording):
        intersection_tower(pres, N)
    return seen


def reference_tower(pres, N):
    """Levels 0..N of the tower, intersecting free_multiply extensions."""
    q, f, key = pres.quiver, pres.field, pres.order_key
    arrows = [single(f, q.arrow_path(a)) for a in range(q.num_arrows)]
    levels = [[single(f, q.vertex_path(v)) for v in range(q.num_vertices)],
              arrows, reference_split_blocks(q, echelon_basis(pres.relations, key), key)]
    for n in range(3, N + 1):
        prev = levels[n - 1]
        right_ext = [w for v in prev for a in arrows
                     if not (w := free_multiply(q, v, a)).is_zero()]
        left_ext = [w for a in arrows for v in prev
                    if not (w := free_multiply(q, a, v)).is_zero()]
        levels.append(reference_split_blocks(
            q, reference_intersect(f, right_ext, left_ext, key), key))
    return levels[:N + 1]


def assert_tower_matches_reference(pres, N):
    """The dual-basis generators and every comult slice against the
    intersection tower, the [U | -V] tower and both reference tables, and
    _split_blocks' output against its re-eliminating reference."""
    cobasis = build_koszul_basis(build_rewrite_system(pres), N)
    tower = intersection_tower(pres, N)
    assert_comult_matches_reference(cobasis, pres.field)
    assert_same_scalars(cobasis, tower, N)
    got = cobasis.elements
    want = reference_tower(pres, N)
    assert len(got) == len(want) == len(tower.elements) == N + 1
    for n in range(N + 1):
        # the same generators in the same order, compared as vectors: the
        # order in which a generator's dict lists its terms is the order it
        # was spelled or eliminated in, which no output reads
        assert got[n] == want[n] == tower.elements[n], f"degree {n}"
    # the blocks are ordered, not re-eliminated: every input is already a
    # uniform reduced echelon basis
    inputs = split_inputs(pres, N)
    assert len(inputs) == max(N - 1, 0)
    for n, vectors in enumerate(inputs, start=2):
        got = _split_blocks(pres.quiver, vectors, pres.order_key)
        assert got == reference_split_blocks(pres.quiver, vectors, pres.order_key), f"degree {n}"


def quantum_exterior_text(names, field, params):
    """x^2 = 0 and y.x + q*x.y = 0 for each pair x < y, q from params."""
    lines = [f"field {field}", "vertex 1", *(f"arrow {x} 1 1" for x in names),
             "order " + " > ".join(names)]
    rels = [f"relation {x}.{x}" for x in names]
    pairs = [(x, y) for i, x in enumerate(names) for y in names[i + 1:]]
    for (x, y), q in zip(pairs, params):
        lines.append(f"param q{x}{y} = {q}")
        rels.append(f"relation {y}.{x} + q{x}{y}*{x}.{y}")
    return "\n".join(lines + rels) + "\n"


def family_shaped_text(field, q):
    return "\n".join([
        f"field {field}", "vertex 1", "vertex 2",
        "arrow a 1 1", "arrow b 1 1", "arrow c 1 2", "order a > b > c",
        f"param q = {q}", "relation a.a", "relation b.b", "relation a.b - q*b.a",
        "relation a.c"]) + "\n"


LOOP_FREE = "field Q\nvertex 1\narrow x 1 1\n"
TWO_LOOPS_ALL_RELATIONS = ("field Q\nvertex 1\narrow x 1 1\narrow y 1 1\norder x > y\n"
                           "relation x.x\nrelation x.y\nrelation y.x\nrelation y.y\n")
NO_ARROWS = "field Q\nvertex 1\nvertex 2\n"
POLYNOMIAL_F5 = "field F5\nvertex 1\narrow x 1 1\narrow y 1 1\norder x > y\nrelation x.y - y.x\n"


@pytest.mark.parametrize("text, N", [
    (quantum_exterior_text("xyz", "F32003", [17, 2024, 31999]), 6),
    (quantum_exterior_text("xyzw", "F32003", [5, 77, 1234, 9, 20000, 31002]), 5),
    (family_shaped_text("F32003", 12345), 8),
    (family_shaped_text("Q", "-2/3"), 8),
    (LOOP_FREE, 6),
    (TWO_LOOPS_ALL_RELATIONS, 6),
    (NO_ARROWS, 4),
    (POLYNOMIAL_F5, 6),
], ids=["ext3-F32003", "ext4-F32003", "family-F32003", "family-Q", "one-loop-free",
        "two-loops-R=kQ_2", "no-arrows", "k[x,y]-F5"])
def test_tower_matches_reference_on_file_algebras(text, N):
    assert_tower_matches_reference(parse_presentation(text), N)


def test_tower_matches_reference_on_zigzag():
    assert_tower_matches_reference(zigzag_presentation(), 6)


@st.composite
def quadratic_presentations(draw):
    """Quadratic algebras on 1-3 vertices and at most 3 arrows, over Q, F5, F7."""
    field = draw(st.sampled_from([QQ, PrimeField(5), PrimeField(7)]))
    nv = draw(st.integers(1, 3))
    ends = draw(st.lists(st.tuples(st.integers(0, nv - 1), st.integers(0, nv - 1)),
                         min_size=1, max_size=3))
    quiver = Quiver([str(v) for v in range(nv)],
                    [(f"a{i}", str(o), str(t)) for i, (o, t) in enumerate(ends)])
    blocks = {}
    for a, (o, mid) in enumerate(ends):
        for b, (mid2, t) in enumerate(ends):
            if mid == mid2:
                blocks.setdefault((o, t), []).append(Path(o, (a, b)))
    relations = []
    for pair in sorted(blocks):
        words = blocks[pair]
        for _ in range(draw(st.integers(0, len(words)))):
            coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(words),
                                   max_size=len(words)))
            rel = PathVector(field, {w: field(c) for w, c in zip(words, coeffs)})
            if not rel.is_zero():
                relations.append(rel)
    order = draw(st.permutations(range(len(ends))))
    return QuadraticPresentation(quiver, relations, arrow_order=order, field=field)


def uncertified_rewrite_system(pres):
    """A's rewrite system as build_rewrite_system makes it, without its
    confluence check."""
    with mock.patch("koszulgerst.rewriting._check_confluence"):
        return build_rewrite_system(pres)


def is_confluent(build):
    try:
        build()
    except NotConfluent:
        return False
    return True


@settings(derandomize=True, max_examples=60, deadline=None)
@given(quadratic_presentations())
def test_tower_matches_reference_on_random_quadratic_algebras(pres):
    # an algebra without a quadratic Groebner basis has no cobasis: its dual
    # is not confluent either (the next test), and the complex refuses it
    if is_confluent(lambda: build_rewrite_system(pres)):
        assert_tower_matches_reference(pres, 5)
        rs = build_rewrite_system(pres)
        cobasis = build_koszul_basis(rs, 5)
        assert_codes_round_trip(cobasis)
        assert_right_action_matches_reference(cobasis)
        assert nf_path_mismatches(rs, 0) == []


@settings(derandomize=True, max_examples=60, deadline=None)
@given(quadratic_presentations())
def test_dual_is_confluent_exactly_when_the_algebra_is(pres):
    # PBW duality: a quadratic Groebner basis of A gives one of A^! under the
    # reversed arrow order, and A = (A^!)^!
    assert (is_confluent(lambda: build_rewrite_system(pres))
            == is_confluent(lambda: build_koszul_basis(uncertified_rewrite_system(pres), 2)))


@pytest.mark.parametrize("prev_terms", [
    [{(0, 0): 1}, {(0, 0): 1, (0, 1): 1}],  # two generators pivot at x.x
    [{(0, 0): 1, (0, 1): 1}, {(0, 1): 1}],  # x.x + x.y is not zero at x.y
    [{(0, 0): 2}],                          # not monic at its pivot
], ids=["shared-pivot", "not-reduced", "not-monic"])
def test_intersect_rejects_a_prev_that_is_not_reduced_echelon(prev_terms):
    q = Quiver(["1"], [("x", "1", "1"), ("y", "1", "1")])
    pres = QuadraticPresentation(q, [], field=QQ)
    prev = [PathVector(QQ, {Path(0, arrows): QQ(c) for arrows, c in terms.items()})
            for terms in prev_terms]
    with pytest.raises(InconsistentBasis):
        _intersect(q, QQ, prev, pres.order_key)


# -- finite dimensionality: graphlib against the hand-rolled search -------------


def reference_is_finite_dimensional(rs):
    """The iterative three-colour depth-first search that
    RewriteSystem.is_finite_dimensional ran before it used graphlib."""
    q = rs.quiver
    n = q.num_arrows
    succ = [[b for b in range(n)
             if q.arrow_t[a] == q.arrow_o[b] and (a, b) not in rs.rules]
            for a in range(n)]
    color = [0] * n  # 0 new, 1 active, 2 done

    def has_cycle(a):
        stack = [(a, iter(succ[a]))]
        color[a] = 1
        while stack:
            node, it = stack[-1]
            advanced = False
            for b in it:
                if color[b] == 1:
                    return True
                if color[b] == 0:
                    color[b] = 1
                    stack.append((b, iter(succ[b])))
                    advanced = True
                    break
            if not advanced:
                color[node] = 2
                stack.pop()
        return False

    return not any(color[a] == 0 and has_cycle(a) for a in range(n))


def two_cycle_presentation(relations):
    """Arrows x: 1 -> 2 and y: 2 -> 1 with the given two-arrow monomial relations."""
    q = Quiver(["1", "2"], [("x", "1", "2"), ("y", "2", "1")])
    return QuadraticPresentation(
        q, [single(QQ, Path(q.arrow_o[w[0]], w)) for w in relations], field=QQ)


@pytest.mark.parametrize("pres, finite", [
    (load_presentation("short", QQ), False),
    (load_presentation("family", QQ, q=1), True),
    (load_presentation("family", PrimeField(5), q=-1), True),
    (zigzag_presentation(), True),
    (QuadraticPresentation(Quiver(["1"], [("x", "1", "1")]), [], field=QQ), False),
    (two_cycle_presentation([(0, 1)]), True),  # x.y is a rule head, y.x is not
    (two_cycle_presentation([]), False),
], ids=["short", "family-q=1", "family-q=-1-F5", "zigzag", "free-loop", "two-cycle-one-head",
        "two-cycle-free"])
def test_finite_dimensionality_matches_reference(pres, finite):
    rs = build_rewrite_system(pres)
    assert rs.is_finite_dimensional() == reference_is_finite_dimensional(rs) == finite


@settings(derandomize=True, max_examples=60, deadline=None)
@given(quadratic_presentations())
def test_finite_dimensionality_matches_reference_on_random_quadratic_algebras(pres):
    try:
        rs = build_rewrite_system(pres)
    except NotConfluent:
        assume(False)
    assert rs.is_finite_dimensional() == reference_is_finite_dimensional(rs)
