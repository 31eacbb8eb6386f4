"""Path algebras, quadratic rewriting, confluence, and normal-form arithmetic."""

import pytest

from koszulgerst.algfile import parse_presentation
from koszulgerst.errors import NonQuadraticRelation, NotConfluent
from koszulgerst.fields import QQ
from koszulgerst.presets import PRESET_FILES, load_complex, load_presentation
from koszulgerst.quiver import Path, PathVector, QuadraticPresentation, Quiver
from koszulgerst.resolution import KoszulComplex
from koszulgerst.rewriting import build_rewrite_system

from linalg_reference import single
from test_generic_algebra import zigzag_complex
from test_koszul import family_shaped_text, quantum_exterior_text


def two_loop_quiver():
    return Quiver(["1"], [("x", "1", "1"), ("y", "1", "1")])


def pv(field, quiver, *terms):
    """terms: (coeff, arrow-name word) pairs, e.g. (1, "xy")."""
    acc = {}
    for coeff, word in terms:
        arrows = tuple(quiver.arrow_index[ch] for ch in word)
        path = Path(quiver.arrow_o[arrows[0]], arrows) if arrows else Path(0, ())
        acc[path] = field(coeff)
    return PathVector(field, acc)


def test_short_rules_and_overlap():
    pres = load_presentation("short", QQ)
    rs = build_rewrite_system(pres)
    q = pres.quiver
    x, y = q.arrow_index["x"], q.arrow_index["y"]
    assert set(rs.rules) == {(x, x), (x, y)}
    assert rs.rules[(x, x)].is_zero()
    assert rs.rules[(x, y)] == pv(QQ, q, (-1, "yx"))
    # the overlap word xxy reduces to zero along both routes
    xxy = Path(0, (x, x, y))
    assert rs.nf_path(xxy).is_zero()


def test_family_rules_confluent():
    pres = load_presentation("family", QQ, q=2)
    rs = build_rewrite_system(pres)
    q = pres.quiver
    a, b, c = (q.arrow_index[n] for n in "abc")
    assert set(rs.rules) == {(a, a), (b, b), (a, b), (a, c)}
    assert rs.rules[(a, b)] == pv(QQ, q, (2, "ba"))
    assert rs.rules[(a, a)].is_zero()


@pytest.mark.parametrize("q, route", [(1, "a.b.c"), (-1, "-a.b.c"), (2, "1/2*a.b.c")])
@pytest.mark.parametrize("order", ["a > b > c", "a > c > b", "c > a > b",
                                   "b > a > c", "b > c > a", "c > b > a"])
def test_family_arrow_orders_build_or_name_their_overlap(order, q, route):
    # with a > b the rule a.b -> q b.a leaves every overlap resolvable; with
    # b > a the rule b.a -> 1/q a.b meets a.c -> 0 on the overlap b.a.c
    text = PRESET_FILES["family"].replace("order a > b > c", f"order {order}")
    pres = parse_presentation(f"{text}param q = {q}\n")
    if order in ("a > b > c", "a > c > b", "c > a > b"):
        kx = KoszulComplex(pres, 4)
        assert [kx.count(n) for n in range(5)] == [2, 3, 4, 5, 6]
    else:
        with pytest.raises(NotConfluent) as err:
            build_rewrite_system(pres)
        assert str(err.value) == f"overlap b.a.c resolves to {route} and 0"


def test_single_commutator_relation_is_confluent():
    q = two_loop_quiver()
    rel = pv(QQ, q, (1, "xy"), (-1, "yx"))
    pres = QuadraticPresentation(q, [rel], field=QQ)
    rs = build_rewrite_system(pres)  # must not raise NotConfluent
    x, y = q.arrow_index["x"], q.arrow_index["y"]
    assert set(rs.rules) == {(x, y)}
    assert rs.rules[(x, y)] == pv(QQ, q, (1, "yx"))


def test_not_confluent_detected():
    q = two_loop_quiver()
    # xx -> xy fails the diamond test on the overlap xxx
    rel = pv(QQ, q, (1, "xx"), (-1, "xy"))
    pres = QuadraticPresentation(q, [rel], field=QQ)
    with pytest.raises(NotConfluent):
        build_rewrite_system(pres)


def test_non_quadratic_relation_rejected():
    q = two_loop_quiver()
    cubic = pv(QQ, q, (1, "xxy"))
    with pytest.raises(NonQuadraticRelation):
        QuadraticPresentation(q, [cubic], field=QQ)
    mixed = pv(QQ, q, (1, "xx"), (1, "x"))
    with pytest.raises(NonQuadraticRelation):
        QuadraticPresentation(q, [mixed], field=QQ)


def test_normal_form_examples(short8, family8):
    qs = short8.quiver
    assert short8.rs.normal_form(pv(QQ, qs, (1, "xy"))) == pv(QQ, qs, (-1, "yx"))
    qf = family8.quiver
    ab = single(QQ, Path(0, (0, 1)))
    assert family8.rs.normal_form(ab) == single(QQ, Path(0, (1, 0)))
    e1 = single(QQ, Path(0, ()))
    assert short8.rs.normal_form(e1) == e1


def test_normal_form_idempotent_and_kills_relations(short8, family8, rng):
    for kx in (short8, family8):
        for rel in kx.presentation.relations:
            assert kx.rs.normal_form(rel).is_zero()
        words = [w for L in range(4) for w in kx.rs.basis_words(L)]
        for _ in range(30):
            terms = {}
            for w in rng.sample(words, min(3, len(words))):
                terms[w] = QQ(rng.randrange(-3, 4))
            vec = PathVector(QQ, terms)
            once = kx.rs.normal_form(vec)
            assert kx.rs.normal_form(once) == once


def test_multiply_examples(short8, family8):
    qs = short8.quiver
    x = pv(QQ, qs, (1, "x"))
    y = pv(QQ, qs, (1, "y"))
    assert short8.rs.multiply(x, y) == pv(QQ, qs, (-1, "yx"))
    qf = family8.quiver
    a = pv(QQ, qf, (1, "a"))
    c = single(QQ, Path(0, (2,)))
    assert family8.rs.multiply(a, c).is_zero()
    e1 = single(QQ, Path(0, ()))
    e2 = single(QQ, Path(1, ()))
    assert family8.rs.multiply(e1, a) == a
    assert family8.rs.multiply(e2, a).is_zero()


def test_vertex_idempotents_act_as_identity(family8):
    f = family8.field
    q = family8.quiver
    total = PathVector(f, {q.vertex_path(v): f.one for v in range(q.num_vertices)})
    for L in range(3):
        for w in family8.rs.basis_words(L):
            wv = single(f, w)
            assert family8.rs.multiply(total, wv) == wv
            assert family8.rs.multiply(wv, total) == wv


def test_multiplication_associative_on_random_words(short8, family8, rng):
    for kx in (short8, family8):
        words = [single(QQ, w)
                 for L in range(3) for w in kx.rs.basis_words(L)]
        for _ in range(40):
            a, b, c = (rng.choice(words) for _ in range(3))
            left = kx.rs.multiply(kx.rs.multiply(a, b), c)
            right = kx.rs.multiply(a, kx.rs.multiply(b, c))
            assert left == right


def _word_names(rs, max_len):
    return [rs.quiver.format_path(w) for length in range(max_len + 1)
            for w in rs.basis_words(length)]


def test_basis_words_family(family8):
    rs = family8.rs
    assert rs.is_finite_dimensional()
    assert rs.basis_words(3) == [] and rs.basis_words(4) == []
    names = _word_names(rs, 4)
    assert len(names) == 7
    assert set(names) == {"e1", "e2", "a", "b", "c", "b.a", "b.c"}


def test_basis_words_short_infinite(short8):
    rs = short8.rs
    assert not rs.is_finite_dimensional()
    assert rs.basis_words(3)
    assert {"y", "y.y", "y.y.y"} <= set(_word_names(rs, 3))


def test_basis_words_vertex_only():
    q = Quiver(["1"], [])
    pres = QuadraticPresentation(q, [], field=QQ)
    rs = build_rewrite_system(pres)
    assert rs.is_finite_dimensional()
    assert rs.basis_words(0) == rs.basis_words(0, o=0, t=0) == [Path(0, ())]
    assert rs.basis_words(1) == []


def test_basis_words_of_negative_length_are_empty(family8, short8):
    # a negative length must not wrap around to the longest level grown so far
    for rs in (family8.rs, short8.rs):
        rs.basis_words(3)
        assert rs.basis_words(-1) == [] and rs.basis_words(-2, o=0, t=0) == []


@pytest.mark.parametrize("make", [
    lambda: load_complex("family", QQ, 3, q=1),
    lambda: load_complex("family", QQ, 3, q=-1),
    lambda: load_complex("short", QQ, 3),
    lambda: zigzag_complex(3),
    lambda: KoszulComplex(parse_presentation(
        quantum_exterior_text("xyz", "F32003", [17, 2024, 31999])), 3),
    lambda: KoszulComplex(parse_presentation(family_shaped_text("F32003", 12345)), 3),
], ids=["family-q=1", "family-q=-1", "short", "zigzag", "ext3-F32003", "family-F32003"])
def test_basis_words_between_two_vertices_are_the_filtered_level(make):
    # each level's (origin, target) index against the level filtered by the
    # ends of its words, on A and on A^!; every answer is a new list, so
    # mutating one changes no later answer
    kx = make()
    for rs in (kx.rs, kx.cobasis.dual):
        q = rs.quiver
        for length in range(7):
            level = rs.basis_words(length)
            for o in range(q.num_vertices):
                for t in range(q.num_vertices):
                    want = [w for w in level if w.o == o and q.path_target(w) == t]
                    got = rs.basis_words(length, o, t)
                    assert got == want
                    got.append(None)
                    assert rs.basis_words(length, o, t) == want
            level.append(None)
            assert rs.basis_words(length) == level[:-1]
        assert rs.basis_words(-1, 0, 0) == []
        with pytest.raises(TypeError):
            rs.basis_words(1, o=0)


def test_vertex_and_arrow_paths_are_shared():
    q = load_presentation("family", QQ, q=1).quiver
    for v in range(q.num_vertices):
        assert q.vertex_path(v) is q.vertex_path(v)
        assert q.vertex_path(v) == Path(v, ())
    for a in range(q.num_arrows):
        assert q.arrow_path(a) is q.arrow_path(a)
        assert q.arrow_path(a) == Path(q.arrow_o[a], (a,))


@pytest.mark.parametrize("o, arrows", [(0, ()), (1, ()), (0, (2,)), (0, (0, 1, 0))])
def test_path_and_its_plain_tuple_are_one_key(o, arrows):
    # the comultiplicative scalar slices look up and compare plain
    # (origin, arrows) tuples against Path keys
    path, plain = Path(o, arrows), (o, arrows)
    assert path == plain and plain == path
    assert hash(path) == hash(plain)
    assert {path: 1}[plain] == 1 and {plain: 1}[path] == 1
    assert {path: 1, Path(o + 1, ()): 2} == {plain: 1, (o + 1, ()): 2}
    assert (o + 1, arrows) != path and (o, arrows + (0,)) != path
