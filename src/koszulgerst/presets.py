"""Built-in algebras and their golden reference data.

The presets are algebra files (the grammar of ``algfile``), the texts of
``PRESET_FILES``, read by ``parse_presentation`` with the field asked for:

* ``short``: one vertex, loops x > y, relations x^2 and xy + yx.  Infinite
  dimensional; its generator tower is x^n and sum_{i+j=n-1} x^i y x^j.
* ``family``: vertices 1, 2, loops a > b at 1 and an arrow c: 1 -> 2,
  relations a^2, b^2, ab - q ba, ac; ``load_presentation`` adds the line
  ``param q = ...`` for the q asked for.  Seven dimensional; generators
  follow the recursion f^n_s = f^{n-1}_{s-1} b + (-q)^s f^{n-1}_s a between
  the pure powers, with a^{n-1} c closing each degree.

Both closed forms are what the generic construction from the quadratic
dual gives, generator for generator and in the same order, so the golden
tables match it index for index; the test suite keeps the closed forms as
a reference.  The golden cocycles and bracket table of ``family`` at q = 1
and the short example's golden cocycles and liftings live here too, so the
acceptance suite and the ``tables`` command share one source of truth
(``family``'s golden liftings are read only by the tests, which keep them).
Each golden cochain is the command-line literal ``--cocycle`` would take
(``"a,0,0,0"``), read by ``algfile.parse_cochain``.
"""

from .algfile import parse_cochain, parse_presentation, parse_value
from .cohomology import Cochain
from .errors import KoszulGerstError, MissingParameter, UnknownPreset
from .lifting import HomotopyLifting
from .resolution import BimoduleElement, KoszulComplex

PRESET_FILES = {
    "short": """\
field Q
vertex 1
arrow x 1 1
arrow y 1 1
order x > y
relation x.x
relation x.y + y.x
""",
    "family": """\
field Q
vertex 1
vertex 2
arrow a 1 1
arrow b 1 1
arrow c 1 2
order a > b > c
relation a.a
relation b.b
relation a.b - q*b.a
relation a.c
""",
}


def load_presentation(name, field, q=None):
    if name not in PRESET_FILES:
        raise UnknownPreset(f"unknown preset {name!r} (have: {', '.join(PRESET_FILES)})")
    text = PRESET_FILES[name]
    if name == "family":
        if q is None:
            raise MissingParameter("preset 'family' needs the parameter q")
        text += f"param q = {field.format(field(q))}\n"
    elif q is not None:
        raise KoszulGerstError(f"preset {name!r} takes no parameter q")
    return parse_presentation(text, field_override=field)


def load_complex(name, field, N, q=None):
    return KoszulComplex(load_presentation(name, field, q=q), N)


def _word(kx, text, vertex):
    """The Path of a dotted arrow word, or e_vertex for the empty word."""
    if not text:
        return kx.quiver.vertex_path(vertex)
    (path,) = parse_value(kx.quiver, kx.field, {}, text).terms
    return path


def _bim(kx, degree, spec):
    """BimoduleElement from [(coeff, uword, index, vword), ...] (or 0); an
    empty word is the idempotent at that end of eps^degree_index."""
    f = kx.field
    terms = {}
    for coeff, uword, i, vword in spec or ():
        o, t = kx.cobasis.o(degree, i)
        key = (_word(kx, uword, o), i, _word(kx, vword, t))
        terms[key] = terms.get(key, 0) + f(coeff)
    return BimoduleElement(f, degree, terms)


# -- short-example goldens ------------------------------------------------------


def short_goldens(kx):
    """Golden cocycles, liftings and bracket value of the short preset."""
    chi = parse_cochain(kx, 1, "x.y,0")
    theta = parse_cochain(kx, 1, "0,y")
    psi_chi = HomotopyLifting(kx, chi, {
        1: [_bim(kx, 1, [(1, "x", 1, ""), (1, "", 0, "y")]), _bim(kx, 1, 0)],
        2: [_bim(kx, 2, [(1, "x", 1, "")]), _bim(kx, 2, [(1, "", 1, "y")])],
    })
    def theta_maps(M):
        return {m: [_bim(kx, m, 0), _bim(kx, m, [(1, "", 1, "")])]
                for m in range(1, M + 1)}
    psi_theta = HomotopyLifting(kx, theta, theta_maps(min(kx.N, 3)))
    return {
        "chi": chi,
        "theta": theta,
        "psi_chi": psi_chi,
        "psi_theta": psi_theta,
        "bracket_chi_theta": -chi,
    }


# -- family goldens ---------------------------------------------------------------


def family_table1(kx):
    """Degree-2 cocycle table (q = 1): nine value lists."""
    rows = ["a,0,0,0", "a.b,0,0,0", "0,0,a,0", "0,0,b,0", "0,0,a.b,0", "0,0,e1,0",
            "0,a.b,0,0", "0,0,0,c", "0,0,0,b.c"]
    return [parse_cochain(kx, 2, row) for row in rows]


def family_table2(kx):
    """Degree-1 cocycle table (q = 1): six value lists."""
    rows = ["a,0,0", "a.b,0,0", "0,b,0", "0,a.b,0", "0,0,c", "0,0,b.c"]
    return [parse_cochain(kx, 1, row) for row in rows]


# the named cocycles at q = 1, as (degree, cochain literal)
FAMILY_NAMED = {"eta": (1, "a,0,0"), "chi": (1, "a.b,0,0"), "etabar": (2, "a,0,0,0"),
                "chibar": (2, "0,0,a.b,0"), "theta": (2, "a.b,0,0,0")}


def family_named_cocycles(kx):
    return {name: parse_cochain(kx, *spec) for name, spec in FAMILY_NAMED.items()}


def family_table3(kx, named):
    """The sixteen golden bracket values at q = 1, keyed by cocycle names;
    named is family_named_cocycles(kx)."""
    z1, z2, z3 = (Cochain.zero(kx, n) for n in (1, 2, 3))
    return {
        ("eta", "eta"): z1, ("eta", "chi"): z1,
        ("eta", "etabar"): -named["etabar"], ("eta", "chibar"): named["chibar"],
        ("chi", "eta"): z1, ("chi", "chi"): z1,
        ("chi", "etabar"): -named["theta"], ("chi", "chibar"): z2,
        ("etabar", "eta"): named["etabar"], ("etabar", "chi"): named["theta"],
        ("etabar", "etabar"): z3, ("etabar", "chibar"): z3,
        ("chibar", "eta"): -named["chibar"], ("chibar", "chi"): z2,
        ("chibar", "etabar"): z3, ("chibar", "chibar"): z3,
    }
