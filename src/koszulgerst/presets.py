"""Built-in algebras and their golden reference data.

Two presets ship with the tool:

* ``short``: one vertex, loops x > y, relations x^2 and xy + yx.  Infinite
  dimensional; its generator tower is x^n and sum_{i+j=n-1} x^i y x^j.
* ``family``: vertices 1, 2, loops a > b at 1 and an arrow c: 1 -> 2,
  relations a^2, b^2, ab - q ba, ac for a field scalar q.  Seven
  dimensional; generators follow the recursion
  f^n_s = f^{n-1}_{s-1} b + (-q)^s f^{n-1}_s a between the pure powers,
  with a^{n-1} c closing each degree.

Both closed forms are what the generic construction from the quadratic
dual gives, generator for generator and in the same order, so the golden
tables match it index for index; the test suite keeps the closed forms as
a reference.  Golden cocycles, liftings, derivation operators and the
bracket table for q = 1 live here too, so the acceptance suite and the
``tables`` command share one source of truth.
"""

from .cohomology import Cochain
from .errors import MissingParameter, UnknownPreset
from .lifting import DerivationOperator, HomotopyLifting
from .quiver import Path, PathVector, QuadraticPresentation, Quiver
from .resolution import BimoduleElement, KoszulComplex

PRESET_NAMES = ("short", "family")


# -- presentations ------------------------------------------------------------


def short_presentation(field):
    quiver = Quiver(["1"], [("x", "1", "1"), ("y", "1", "1")])
    x, y = Path(0, (0,)), Path(0, (1,))
    xx = Path(0, (0, 0))
    xy = Path(0, (0, 1))
    yx = Path(0, (1, 0))
    relations = [PathVector(field, {xx: field.one}),
                 PathVector(field, {xy: field.one, yx: field.one})]
    return QuadraticPresentation(quiver, relations, arrow_order=(0, 1), field=field)


def family_presentation(field, q):
    quiver = Quiver(["1", "2"], [("a", "1", "1"), ("b", "1", "1"), ("c", "1", "2")])
    q = field(q)
    aa = Path(0, (0, 0))
    bb = Path(0, (1, 1))
    ab = Path(0, (0, 1))
    ba = Path(0, (1, 0))
    ac = Path(0, (0, 2))
    relations = [PathVector(field, {aa: field.one}),
                 PathVector(field, {bb: field.one}),
                 PathVector(field, {ab: field.one, ba: field.neg(q)}),
                 PathVector(field, {ac: field.one})]
    return QuadraticPresentation(quiver, relations, arrow_order=(0, 1, 2),
                                 field=field, params={"q": q})


def load_presentation(name, field, q=None):
    if name == "short":
        return short_presentation(field)
    if name == "family":
        if q is None:
            raise MissingParameter("preset 'family' needs the parameter q")
        return family_presentation(field, q)
    raise UnknownPreset(f"unknown preset {name!r} (have: {', '.join(PRESET_NAMES)})")


def load_complex(name, field, N, q=None):
    return KoszulComplex(load_presentation(name, field, q=q), N)


# -- small constructors for golden data ----------------------------------------


def _word(kx, text):
    """Path from a dotted arrow word or ``e<vertex>``."""
    q = kx.quiver
    if text.startswith("e"):
        return q.vertex_path(q.vertex_index[text[1:]])
    arrows = tuple(q.arrow_index[a] for a in text.split("."))
    return Path(q.arrow_o[arrows[0]], arrows)


def _value(kx, spec):
    """PathVector from [(coeff, word), ...] or a bare word string or 0."""
    f = kx.field
    if spec == 0 or spec == "0":
        return PathVector.zero(f)
    if isinstance(spec, str):
        spec = [(1, spec)]
    terms = {}
    for coeff, word in spec:
        path = _word(kx, word)
        terms[path] = terms.get(path, 0) + f(coeff)
    return PathVector(f, terms)


def cochain(kx, degree, specs):
    return Cochain.from_values(kx, degree, [_value(kx, s) for s in specs])


def _bim(kx, degree, spec):
    """BimoduleElement from [(coeff, uword, index, vword), ...] (or 0)."""
    f = kx.field
    if spec == 0:
        return BimoduleElement.zero(f, degree)
    terms = {}
    for coeff, uword, i, vword in spec:
        o, t = kx.cobasis.o(degree, i)
        u = _word(kx, uword) if uword else kx.quiver.vertex_path(o)
        v = _word(kx, vword) if vword else kx.quiver.vertex_path(t)
        key = (u, i, v)
        terms[key] = terms.get(key, 0) + f(coeff)
    return BimoduleElement(f, degree, terms)


# -- short-example goldens ------------------------------------------------------


def short_goldens(kx):
    """Golden cocycles, liftings and bracket value of the short preset."""
    chi = cochain(kx, 1, ["x.y", 0])
    theta = cochain(kx, 1, [0, "y"])
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
    rows = [["a", 0, 0, 0], ["a.b", 0, 0, 0], [0, 0, "a", 0], [0, 0, "b", 0],
            [0, 0, "a.b", 0], [0, 0, "e1", 0], [0, "a.b", 0, 0], [0, 0, 0, "c"],
            [0, 0, 0, "b.c"]]
    return [cochain(kx, 2, row) for row in rows]


def family_table2(kx):
    """Degree-1 cocycle table (q = 1): six value lists."""
    rows = [["a", 0, 0], ["a.b", 0, 0], [0, "b", 0], [0, "a.b", 0], [0, 0, "c"],
            [0, 0, "b.c"]]
    return [cochain(kx, 1, row) for row in rows]


def family_named_cocycles(kx):
    return {
        "eta": cochain(kx, 1, ["a", 0, 0]),
        "chi": cochain(kx, 1, ["a.b", 0, 0]),
        "etabar": cochain(kx, 2, ["a", 0, 0, 0]),
        "chibar": cochain(kx, 2, [0, 0, "a.b", 0]),
        "theta": cochain(kx, 2, ["a.b", 0, 0, 0]),
    }


def family_psi_eta(kx, M):
    """Lifting of eta = (a 0 0): psi(eps^m_r) = (m - r) eps^m_r, last slot m - 1."""
    f = kx.field
    maps = {}
    for m in range(1, M + 1):
        images = []
        for r in range(m + 1):
            images.append(_bim(kx, m, [(m - r, "", r, "")] if m != r else 0))
        images.append(_bim(kx, m, [(m - 1, "", m + 1, "")] if m != 1 else 0))
        maps[m] = images
    return HomotopyLifting(kx, family_named_cocycles(kx)["eta"], maps)


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
        if m >= 2:
            images.append(_bim(kx, m, [(m - 1, "b", m + 1, ""), (m - 1, "", 1, "c")]))
        else:
            images.append(_bim(kx, m, 0))
        maps[m] = images
    return HomotopyLifting(kx, family_named_cocycles(kx)["chi"], maps)


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
    return HomotopyLifting(kx, family_named_cocycles(kx)["etabar"], maps)


def family_psi_chibar(kx):
    """Lifting of chibar = (0 0 ab 0) at q = 1, golden data for degrees 1..3."""
    maps = {
        1: [_bim(kx, 0, 0)] * 3,
        2: [_bim(kx, 1, 0), _bim(kx, 1, 0),
            _bim(kx, 1, [(1, "a", 1, ""), (1, "", 0, "b")]), _bim(kx, 1, 0)],
        3: [_bim(kx, 2, 0), _bim(kx, 2, 0), _bim(kx, 2, [(-1, "a", 1, "")]),
            _bim(kx, 2, [(1, "", 1, "b")]), _bim(kx, 2, 0)],
    }
    return HomotopyLifting(kx, family_named_cocycles(kx)["chibar"], maps)


def family_deriv_eta(kx, M):
    """Derivation operator of eta: same images as the lifting, as a chain map."""
    lift = family_psi_eta(kx, M)
    maps = {0: [BimoduleElement.zero(kx.field, 0), BimoduleElement.zero(kx.field, 0)]}
    maps.update(lift.maps)
    return DerivationOperator(kx, lift.cocycle, maps)


def family_deriv_chi(kx, M):
    lift = family_psi_chi(kx, M)
    maps = {0: [BimoduleElement.zero(kx.field, 0), BimoduleElement.zero(kx.field, 0)]}
    maps.update(lift.maps)
    return DerivationOperator(kx, lift.cocycle, maps)


def family_table3(kx):
    """The sixteen golden bracket values at q = 1, keyed by cocycle names."""
    named = family_named_cocycles(kx)
    z1 = Cochain.zero(kx, 1)
    z2 = Cochain.zero(kx, 2)
    z3 = Cochain.zero(kx, 3)
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
