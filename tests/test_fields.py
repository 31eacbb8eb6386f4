"""Field values: the Q representation invariant and F_p residues."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koszulgerst.errors import ParseError
from koszulgerst.fields import QQ, PrimeField

from linalg_reference import add, mul, sub

F5 = PrimeField(5)
F7 = PrimeField(7)


@pytest.mark.parametrize("value", [
    QQ.parse("3"), QQ.parse("6/2"), QQ.parse("-4/2"), QQ.parse("0"), QQ.parse(" 12 "),
    QQ(4), QQ(Fraction(8, 4)), QQ("-5"), QQ.inv(Fraction(1, 3)), QQ.inv(-1), QQ.inv(1),
    QQ.inv(Fraction(1)), QQ.inv(Fraction(-2, 2)), QQ.zero, QQ.one,
])
def test_integral_rationals_are_ints(value):
    assert type(value) is int


@pytest.mark.parametrize("value, expected", [
    (QQ.parse("1/2"), Fraction(1, 2)),
    (QQ.inv(2), Fraction(1, 2)),
    (QQ.parse("-3/6"), Fraction(-1, 2)),
    (QQ(Fraction(4, 6)), Fraction(2, 3)),
    (QQ.inv(Fraction(-3, 2)), Fraction(-2, 3)),
])
def test_non_integral_rationals_are_fractions(value, expected):
    assert type(value) is Fraction and value.denominator > 1
    assert value == expected


def test_integral_values_keep_their_value():
    assert QQ.parse("6/2") == 3 and QQ.parse("-4/2") == -2
    assert QQ.inv(Fraction(1, 3)) == 3 and QQ.inv(Fraction(-1, 4)) == -4


def test_rational_errors():
    with pytest.raises(ParseError):
        QQ.parse("1/0")
    with pytest.raises(ParseError):
        QQ.parse("x")
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0, 3))


def test_prime_field_residues():
    assert F5.parse("1/2") == 3 and F7.parse("1/2") == 4
    assert F5.parse("6/2") == 3 and F7.parse("6/2") == 3
    assert F5(Fraction(3, 1)) == 3 and F7(Fraction(3, 1)) == 3
    assert F5(Fraction(-3, 1)) == 2 and F5(Fraction(1, 3)) == 2
    for text in ("1/2", "6/2", "-4/2", "3"):
        assert F5.parse(text) == F5(QQ.parse(text)) == F5(Fraction(text))
    # a denominator divisible by p has no residue
    for text in ("1/5", "2/10"):
        with pytest.raises(ParseError):
            F5.parse(text)
    with pytest.raises(ZeroDivisionError):
        F5(Fraction(1, 5))


rationals = st.builds(Fraction, st.integers(-50, 50), st.sampled_from([1, 1, 1, 2, 3, 4, 6]))


@settings(database=None, derandomize=True, max_examples=300, deadline=None)
@given(rationals, rationals)
def test_arithmetic_ignores_the_representation(x, y):
    # QQ(x) is the normalised value (an int when integral), Fraction(x) the
    # un-normalised one; every operation must agree on value and on text
    pairs = [(QQ(x), QQ(y)), (Fraction(x), Fraction(y)), (QQ(x), Fraction(y)),
             (Fraction(x), QQ(y))]
    results = []
    for a, b in pairs:
        row = [add(QQ, a, b), sub(QQ, a, b), mul(QQ, a, b), QQ.neg(a)]
        if b != 0:
            row.append(QQ.inv(b))
        results.append(row)
    first = results[0]
    for row in results[1:]:
        assert row == first
        assert [hash(v) for v in row] == [hash(v) for v in first]
        assert [QQ.format(v) for v in row] == [QQ.format(v) for v in first]
    assert QQ.format(QQ(x)) == QQ.format(Fraction(x)) == str(x)
    for field in (F5, F7):
        assert field(QQ(x)) == field(Fraction(x))


F32003 = PrimeField(32003)


def test_canon_over_q_drops_zeros_and_keeps_values():
    got = QQ.canon([("a", -3), ("b", 0), ("c", Fraction(0)), ("d", Fraction(6, 3)),
                    ("e", Fraction(-1, 2)), ("f", Fraction(0, 7))])
    assert list(got.items()) == [("a", -3), ("d", 2), ("e", Fraction(-1, 2))]
    assert QQ.format(got["d"]) == "2"
    assert QQ.canon([]) == {} and QQ.canon(iter(())) == {}


@pytest.mark.parametrize("field", [F5, F7, F32003], ids=lambda f: f.name)
def test_canon_over_fp_reduces_then_drops_zeros(field):
    p = field.p
    got = field.canon([("neg", -1), ("p", p), ("-2p", -2 * p), ("big", 3 * p * p + 2),
                       ("zero", 0), ("in range", p - 1), ("neg big", -(p ** 3) - 4)])
    assert list(got.items()) == [("neg", p - 1), ("big", 2), ("in range", p - 1),
                                 ("neg big", (-4) % p)]
    assert all(type(v) is int and 0 < v < p for v in got.values())
    assert field.canon([]) == {} and field.canon(iter(())) == {}


def test_canon_keeps_the_first_position_of_each_key():
    # the pairs come from a dict, so each key appears once; the output keeps
    # their order, which the sorted comult rows rely on
    assert list(F5.canon([(2, 7), (0, 5), (1, 9)]).items()) == [(2, 2), (1, 4)]
