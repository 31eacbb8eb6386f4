"""Exact coefficient fields: the rationals and odd prime fields F_p.

A field object knows how to do arithmetic on raw values and how to
parse/format literals.  A Q value is an int when it is integral and a
Fraction with denominator > 1 otherwise; an F_p value is an int in [0, p).
All higher-level structures carry one field and raw values; nothing here is
ever floating point.

Delayed reduction.  Loops that accumulate sums of products do so with the
native + and * (and native signs), so over F_p an accumulator may hold an
unreduced int, negative or far above p.  canon(pairs) is the one reduction
point: it keeps the nonzero canonical values of (key, value) pairs, and it
is the body of the SparseVector and Matrix constructors, so every stored
value is canonical.  Over Q this changes nothing (the field's arithmetic is
Python's own); over F_p the residues are the same as with eager reduction,
because reduction mod p commutes with + and *.  Code that reads accumulated
values itself, rather than handing them to a constructor, calls canon
first.  Elimination (linalg._rref, and linalg._replay, which applies its
recorded row operations to a right-hand side) also updates rows with the
native - and *, but over F_p it reduces % p at every step, since its pivot
and zero tests need a canonical value; it calls the field only for inv.
"""

from fractions import Fraction

from .errors import CharacteristicTwo, ParseError, UnsupportedField


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


def _norm(x):
    """An integral Fraction as its int numerator; anything else unchanged."""
    return x.numerator if x.denominator == 1 else x


class Rationals:
    """Arbitrary-precision rationals, kept in lowest terms by Fraction.

    Every value this class creates (``__call__``, ``parse``, ``inv``) is an
    int when it is integral and a Fraction with denominator > 1 otherwise,
    so that the common integral arithmetic takes the int fast path.  The
    operations themselves do not normalise: a product such as 1/2 * 2 may
    still be an integral Fraction, which compares, hashes and formats the
    same as the int.
    """

    characteristic = 0
    name = "Q"

    def __call__(self, value):
        return _norm(Fraction(value))

    # plain ints, not Fraction(0)/Fraction(1): Fraction compares and adds
    # against an int take its fast path, and ints format the same
    zero = 0
    one = 1

    def neg(self, a):
        return -a

    def canon(self, pairs):
        """{key: value} for the nonzero values among (key, value) pairs."""
        # a plain loop, not a comprehension: most vectors built here hold one
        # or two terms, and a comprehension's own frame then costs more
        out = {}
        for key, c in pairs:
            if c:
                out[key] = c
        return out

    def inv(self, a):
        if a == 1 or a == -1:  # its own inverse, as an int
            return int(a)
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return _norm(1 / Fraction(a))

    def parse(self, text):
        try:
            return _norm(Fraction(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational literal {text!r}") from exc

    def format(self, value):
        return str(value)

    def __eq__(self, other):
        return isinstance(other, Rationals)


class PrimeField:
    """F_p for an odd prime p < 2**31; residues stored in [0, p).

    p = 2 is rejected outright: the Maurer-Cartan machinery divides by 2,
    and nothing else in the package wants characteristic two either.
    """

    def __init__(self, p):
        # the size check comes first: trial division of a huge p would not end
        if isinstance(p, int) and p >= 2**31:
            raise UnsupportedField(f"{p} too large (F_p needs p < 2**31)")
        if not isinstance(p, int) or not _is_prime(p):
            raise UnsupportedField(f"{p!r} is not prime")
        if p == 2:
            raise CharacteristicTwo("prime fields of characteristic 2 are not supported")
        self.p = p
        self.characteristic = p
        self.name = f"F{p}"
        self.zero = 0
        self.one = 1

    def __call__(self, value):
        if isinstance(value, Fraction):
            return value.numerator * self.inv(value.denominator) % self.p
        return value % self.p

    def neg(self, a):
        return (-a) % self.p

    def canon(self, pairs):
        """{key: value % p} for the pairs whose value is nonzero mod p."""
        p = self.p
        out = {}
        for key, c in pairs:
            c %= p
            if c:
                out[key] = c
        return out

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def parse(self, text):
        try:
            return self(Fraction(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad field literal {text!r} for {self.name}") from exc

    def format(self, value):
        return str(value % self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p


QQ = Rationals()


def field_from_name(name):
    """Parse a field declaration: ``Q`` or ``F<p>``."""
    name = name.strip()
    if name == "Q":
        return QQ
    if name.startswith("F") and name[1:].isdigit():
        return PrimeField(int(name[1:]))
    raise ParseError(f"unknown field {name!r} (expected Q or F<p>)")
