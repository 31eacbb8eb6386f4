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
a reference.  Golden cocycles, liftings, derivation operators and the
bracket table for q = 1 live here too, so the acceptance suite and the
``tables`` command share one source of truth.  Each golden cochain is the
command-line literal ``--cocycle`` would take (``"a,0,0,0"``), read by
``algfile.parse_cochain``.
"""

from .algfile import parse_cochain, parse_presentation, parse_value
from .cohomology import Cochain
from .errors import KoszulGerstError, MissingParameter, UnknownPreset
from .lifting import DerivationOperator, HomotopyLifting
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
        # b-scalars of the length-2 closed form for chi: both equal to one
        "b_scalars": {(2, 0): (0, 1, 0), (2, 1): (1, 0, 1)},
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


def family_psi_eta(kx, M):
    """Lifting of eta = (a 0 0): psi(eps^m_r) = (m - r) eps^m_r, last slot m - 1."""
    maps = {}
    for m in range(1, M + 1):
        images = [_bim(kx, m, [(m - r, "", r, "")] if m != r else 0) for r in range(m + 1)]
        images.append(_bim(kx, m, [(m - 1, "", m + 1, "")] if m != 1 else 0))
        maps[m] = images
    return HomotopyLifting(kx, parse_cochain(kx, *FAMILY_NAMED["eta"]), maps)


def family_psi_chi(kx, M):
    """Lifting of chi = (ab 0 0) at q = 1, in closed form."""
    maps = {}
    for m in range(1, M + 1):
        images = []
        for r in range(m):
            spec = []
            if r % 2 == 0:
                spec.append(((-1) ** (m + 1), "a", r + 1, ""))
            if m != r:
                spec.append((m - r, "", r, "b"))
            images.append(_bim(kx, m, spec or 0))
        images.append(_bim(kx, m, 0))  # r = m
        images.append(_bim(kx, m, [(m - 1, "b", m + 1, ""), (m - 1, "", 1, "c")]
                           if m >= 2 else 0))
        maps[m] = images
    return HomotopyLifting(kx, parse_cochain(kx, *FAMILY_NAMED["chi"]), maps)


def family_psi_etabar(kx):
    """Lifting of etabar = (a 0 0 0) at q = 1, golden data for degrees 1..3.

    Images of eps^m_r live one homological degree down (in K_{m-1}).
    """
    maps = {
        1: [_bim(kx, 0, 0)] * 3,
        2: [_bim(kx, 1, [(1, "", 0, "")]), _bim(kx, 1, 0), _bim(kx, 1, 0), _bim(kx, 1, 0)],
        3: [_bim(kx, 2, 0), _bim(kx, 2, [(1, "", 1, "")]), _bim(kx, 2, 0),
            _bim(kx, 2, 0), _bim(kx, 2, [(1, "", 3, "")])],
    }
    return HomotopyLifting(kx, parse_cochain(kx, *FAMILY_NAMED["etabar"]), maps)


def family_psi_chibar(kx):
    """Lifting of chibar = (0 0 ab 0) at q = 1, golden data for degrees 1..3."""
    maps = {
        1: [_bim(kx, 0, 0)] * 3,
        2: [_bim(kx, 1, 0), _bim(kx, 1, 0),
            _bim(kx, 1, [(1, "a", 1, ""), (1, "", 0, "b")]), _bim(kx, 1, 0)],
        3: [_bim(kx, 2, 0), _bim(kx, 2, 0), _bim(kx, 2, [(-1, "a", 1, "")]),
            _bim(kx, 2, [(1, "", 1, "b")]), _bim(kx, 2, 0)],
    }
    return HomotopyLifting(kx, parse_cochain(kx, *FAMILY_NAMED["chibar"]), maps)


def _derivation(kx, lift):
    """The derivation operator with the lifting's images, as a chain map:
    it sends both degree-0 generators to zero."""
    zero = BimoduleElement.zero(kx.field, 0)
    return DerivationOperator(kx, lift.cocycle, {0: [zero, zero], **lift.maps})


def family_deriv_eta(kx, M):
    return _derivation(kx, family_psi_eta(kx, M))


def family_deriv_chi(kx, M):
    return _derivation(kx, family_psi_chi(kx, M))


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
