"""Liftings, differentials and derivation operators built from sandwiches.

Kept as the reference for `KoszulComplex.sandwich_into` and for
`lifting`: every product is formed as its own BimoduleElement and then
copied term by term into the sum, where the package accumulates into one
term dict.  `reference_residual` is the lifting residual
d psi - (-1)^{n-1} psi d - (eta ox 1 - 1 ox eta) Delta at eps^m_r, and
`reference_derivation_apply` extends psi by the Leibniz rule, with gamma
applied to the decorations as a derivation, which is how a degree-1
cocycle's derivation operator acts on K.
"""

from koszulgerst.lifting import derivation_on_word
from koszulgerst.quiver import PathVector
from koszulgerst.resolution import BimoduleElement
from identity_reference import eps
from linalg_reference import add, mul


def reference_sandwich_words(kx, u, x, v):
    f, word_product = kx.field, kx.rs.word_product
    out = {}
    for (u0, i, v0), coeff in x.terms.items():
        new_u = word_product(u, u0).terms
        if not new_u:
            continue
        new_v = word_product(v0, v).terms
        for up, uc in new_u.items():
            for vp, vc in new_v.items():
                key = (up, i, vp)
                out[key] = add(f, out.get(key, f.zero), mul(f, coeff, mul(f, uc, vc)))
    return BimoduleElement(f, x.degree, out)


def reference_sandwich(kx, left, x, right):
    f = kx.field
    out = {}
    for u, uc in left.terms.items():
        for v, vc in right.terms.items():
            scale = mul(f, uc, vc)
            for key, c in reference_sandwich_words(kx, u, x, v).terms.items():
                out[key] = add(f, out.get(key, f.zero), mul(f, scale, c))
    return BimoduleElement(f, x.degree, out)


def reference_differential(kx, x):
    f = kx.field
    out = {}
    for (u, i, v), coeff in x.terms.items():
        for key, c in reference_sandwich_words(kx, u, kx._diff_eps(x.degree, i), v).terms.items():
            out[key] = add(f, out.get(key, f.zero), mul(f, coeff, c))
    return BimoduleElement(f, x.degree - 1, out)


def reference_apply(psi, x):
    kx = psi.kx
    f = kx.field
    out = {}
    for (u, i, v), coeff in x.terms.items():
        img = psi.image(x.degree, i)
        for key, c in reference_sandwich_words(kx, u, img, v).terms.items():
            out[key] = add(f, out.get(key, f.zero), mul(f, c, coeff))
    return BimoduleElement(f, max(x.degree - psi.n + 1, 0), out)


def reference_lifting_rhs(kx, eta, m, r):
    n = eta.degree
    f = kx.field
    if m - n < 0:
        return BimoduleElement(f, m - n)
    unit = lambda v: PathVector.single(f, kx.quiver.vertex_path(v))
    out = {}

    def add_scaled(x, coeff):
        for key, c in x.terms.items():
            out[key] = add(f, out.get(key, f.zero), mul(f, c, coeff))

    for (p, q), c in kx.c(m, r, n).items():
        add_scaled(reference_sandwich(kx, eta.values[p], eps(kx, m - n, q),
                                      unit(kx.cobasis.target(m - n, q))), c)
    sign = f.one if (n * (m - n)) % 2 == 0 else f.neg(f.one)
    for (p, q), c in kx.c(m, r, m - n).items():
        add_scaled(reference_sandwich(kx, unit(kx.cobasis.origin(m - n, p)), eps(kx, m - n, p),
                                      eta.values[q]), f.neg(mul(f, sign, c)))
    return BimoduleElement(f, m - n, out)


def reference_residual(kx, eta, psi, m, r):
    f = kx.field
    sign = f.one if (eta.degree - 1) % 2 == 0 else f.neg(f.one)
    first = reference_differential(kx, psi.image(m, r))
    second = reference_apply(psi, kx._diff_eps(m, r))
    return first - second.scale(sign) - reference_lifting_rhs(kx, eta, m, r)


def reference_derivation_apply(kx, gamma, psi, x):
    """The Leibniz extension of psi on x in K_m: gamma(u) . eps_i . v +
    u . psi(eps_i) . v + u . eps_i . gamma(v) on each term u . eps_i . v."""
    f = kx.field
    out = {}
    for (u, i, v), coeff in x.terms.items():
        uvec, vvec, gen = PathVector.single(f, u), PathVector.single(f, v), eps(kx, x.degree, i)
        for left, mid, right in ((derivation_on_word(kx, gamma, u), gen, vvec),
                                 (uvec, psi.image(x.degree, i), vvec),
                                 (uvec, gen, derivation_on_word(kx, gamma, v))):
            for key, c in reference_sandwich(kx, left, mid, right).terms.items():
                out[key] = add(f, out.get(key, f.zero), mul(f, c, coeff))
    return BimoduleElement(f, x.degree, out)
