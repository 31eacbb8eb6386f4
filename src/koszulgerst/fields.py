"""Exact coefficient fields: the rationals and odd prime fields F_p.

A field object knows how to do arithmetic on raw values (Fraction or int
for Q, ints in [0, p) for F_p) and how to parse/format literals.  All
higher-level structures carry one field and raw values; nothing here is
ever floating point.
"""

from fractions import Fraction

from .errors import CharacteristicTwo, ParseError


def _is_prime(p):
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class Rationals:
    """Arbitrary-precision rationals, kept in lowest terms by Fraction."""

    characteristic = 0
    name = "Q"

    def __call__(self, value):
        return Fraction(value)

    # plain ints, not Fraction(0)/Fraction(1): Fraction compares and adds
    # against an int take its fast path, and ints format the same
    zero = 0
    one = 1

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / Fraction(a)

    def div(self, a, b):
        return Fraction(a) / b

    def parse(self, text):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational literal {text!r}") from exc

    def format(self, value):
        return str(value)

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


class PrimeField:
    """F_p for an odd prime p < 2**31; residues stored in [0, p).

    p = 2 is rejected outright: the Maurer-Cartan machinery divides by 2,
    and nothing else in the package wants characteristic two either.
    """

    def __init__(self, p):
        if not isinstance(p, int) or not _is_prime(p):
            raise ValueError(f"{p!r} is not prime")
        if p == 2:
            raise CharacteristicTwo("prime fields of characteristic 2 are not supported")
        if p >= 2**31:
            raise ValueError("prime too large")
        self.p = p
        self.characteristic = p
        self.name = f"F{p}"
        self.zero = 0
        self.one = 1

    def __call__(self, value):
        if isinstance(value, Fraction):
            return self.mul(value.numerator % self.p, self.inv(value.denominator % self.p))
        return value % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def parse(self, text):
        try:
            return self(Fraction(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad field literal {text!r} for {self.name}") from exc

    def format(self, value):
        return str(value % self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("F", self.p))

    def __repr__(self):
        return self.name


QQ = Rationals()


def field_from_name(name):
    """Parse a field declaration: ``Q`` or ``F<p>``."""
    name = name.strip()
    if name == "Q":
        return QQ
    if name.startswith("F") and name[1:].isdigit():
        return PrimeField(int(name[1:]))
    raise ParseError(f"unknown field {name!r} (expected Q or F<p>)")
