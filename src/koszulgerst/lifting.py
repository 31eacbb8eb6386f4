"""Homotopy liftings of cocycles, solved degree by degree; for a degree-1
cocycle the lifting is its derivation operator.

For an n-cocycle eta, a lifting is a family psi: K_m -> K_{m-n+1} with
psi(K_{n-1}) = 0 and

    d o psi_m - (-1)^{n-1} psi_{m-1} o d = (eta ox 1 - 1 ox eta) Delta

in every degree.  The equation is linear and graded: a term u . eps . v has
weight |u| + |v| and d raises weight by one, so the solver solves each
weight slice ell of a target in the ansatz of terms of weight ell - 1.
That keeps every linear system small and reproduces the closed-form shapes
(scalar multiples of generators for ell = 1, one arrow on one side for
ell = 2), and a cocycle lifts as the sum of the liftings of its homogeneous
pieces.  Solutions are canonical (free variables zero), and existence is
guaranteed for cocycles, so a failed solve raises NoSolution rather than
falling back.

A lifting holds the images of the degrees it was built through.  Below
degree n it is the zero map; asking it for a degree >= n it was not built
through raises CochainError, so a lifting that stops short never reads as
zero.

For n = 1, read gamma = eta as a derivation of Lambda and extend a map
gtilde: K -> K by the Leibniz rule, gtilde(u . eps . v) = gamma(u) . eps . v
+ u . gtilde(eps) . v + u . eps . gamma(v).  On d eps, the terms where gamma
acts on a decoration u or v sum to (gamma ox 1 - 1 ox gamma) Delta(eps),
term for term, so the chain-map condition d gtilde = gtilde d is the
lifting equation, and gamma's derivation operator is its lifting:
`derivation_lift` is `solve_lifting` behind a degree check.

The equation is written once, in `_lifting_equation_into`: the solver's
target and `lifting_residual`, and through it `verify_lifting`, read it
from there.
"""

from typing import NamedTuple

from .errors import CochainError, NoSolution
from .linalg import Elimination
from .quiver import Path, PathVector
from .resolution import BimoduleElement


class HomotopyLifting:
    """psi images per degree: maps[m][r] = psi(eps^m_r) in K_{m-n+1}."""

    def __init__(self, kx, cocycle, maps):
        self.kx = kx
        self.n = cocycle.degree
        self.maps = maps  # dict m -> list of BimoduleElement

    def _images(self, m):
        """maps[m], or None below degree n; a degree >= n not built raises."""
        if m < self.n:
            return None
        images = self.maps.get(m)
        if images is None:
            raise CochainError(f"lifting not built through degree {m}")
        return images

    def image(self, m, r):
        images = self._images(m)
        if images is None:
            return BimoduleElement.zero(self.kx.field, max(m - self.n + 1, 0))
        return images[r]

    def apply_into(self, out, x, scale):
        """Add scale . psi(x), psi extended bimodule-linearly to an element
        x of K_m, into the term dict out."""
        images = self._images(x.degree)
        if images is None:
            return
        kx = self.kx
        for (u, i, v), coeff in x.terms.items():
            kx.sandwich_into(out, u, images[i].terms, v, scale * coeff)


def _rhs_into(out, kx, eta, m, r, scale):
    """Add scale . (eta ox 1 - 1 ox eta) Delta(eps^m_r), with the fixed Koszul
    sign, into the term dict out.

    The terms are written as they stand: a value eta(f^n_p) is a sum of
    normal words u from o(p) to t(p), and c_pq != 0 only for composable
    (p, q) (resolution module docstring), so u . eps_q . e_{t(q)} is the
    single term (u, q, e_{t(q)}), and e_{o(p)} . eps_p . v is (e_{o(p)}, p, v).
    """
    n, k = eta.degree, m - eta.degree
    if k < 0:
        return
    cb, vertex = kx.cobasis, kx.quiver.vertex_path
    for (p, q), c in kx.c(m, r, n).items():
        lam = eta.values[p].terms
        if lam:
            c, t = scale * c, vertex(cb.target(k, q))
            for u, uc in lam.items():
                key = (u, q, t)
                out[key] = out.get(key, 0) + c * uc
    # - (-1)^{n k} scale on the 1 ox eta side
    right = scale if (n * k) % 2 else -scale
    for (p, q), c in kx.c(m, r, k).items():
        lam = eta.values[q].terms
        if lam:
            c, o = right * c, vertex(cb.origin(k, p))
            for v, vc in lam.items():
                key = (o, p, v)
                out[key] = out.get(key, 0) + c * vc


def lifting_ansatz(kx, k, ell, o, t):
    """Candidate terms (u, j, v) of K_k with |u| + |v| = ell - 1, u from o and v to t."""
    basis_words, out = kx.rs.basis_words, []
    for j, (o_j, t_j) in enumerate(kx.cobasis.pairs[k]):
        for lu in range(ell):
            us = basis_words(lu, o, o_j)
            if not us:
                continue
            vs = basis_words(ell - 1 - lu, t_j, t)
            for u in us:
                for v in vs:
                    out.append((u, j, v))
    return out


class _LiftingSystem(NamedTuple):
    """d restricted to one ansatz span, eliminated once."""

    ansatz: list
    elimination: Elimination  # of the columns d(u . eps_i . v)


def _lifting_system(kx, k, ell, o, t):
    """The lifting system of the ansatz (k, ell, o, t), built once per complex.

    It depends on neither the cocycle nor the generator being lifted, only
    on the target degree, the internal degree and the vertex pair, so every
    lifting solved on kx shares it.
    """
    key = (k, ell, o, t)
    got = kx._lifting_systems.get(key)
    if got is not None:
        return got
    f = kx.field
    ansatz = lifting_ansatz(kx, k, ell, o, t)
    columns = []
    for u, i, v in ansatz:
        column = {}  # d(u . eps_i . v) = u . d(eps_i) . v
        kx.sandwich_into(column, u, kx._diff_eps(k, i).terms, v, 1)
        columns.append(f.canon(column.items()))
    return kx._lifting_systems.setdefault(key, _LiftingSystem(ansatz, Elimination(f, columns)))


def _solve_images(kx, m, n, target):
    """psi(eps^m_r) in K_{m-n+1} for every r: the canonical solution of
    d psi(eps^m_r) = target(r), one weight slice at a time.

    The slice of weight ell is solved in the ansatz span of weight ell - 1,
    and the image joins the slices' solutions in increasing ell; a zero
    target builds no system and runs no solve.  The homogeneous solutions
    of a solve are the ansatz combinations of its lifting system's kernel
    basis, which the solver never reads, so it is never computed here.
    """
    f = kx.field
    k = m - n + 1
    images = []
    for r in range(kx.count(m)):
        slices = {}
        for key, c in target(r).terms.items():
            slices.setdefault(len(key[0].arrows) + len(key[2].arrows), {})[key] = c
        terms = []
        for ell in sorted(slices):
            system = _lifting_system(kx, k, ell, *kx.cobasis.o(m, r))
            solution = system.elimination.solve(slices[ell])
            if solution is None:
                raise NoSolution(
                    f"no lifting at degree {m}, generator {r}: input is not a "
                    f"cocycle or the resolution data is corrupted")
            terms += [(system.ansatz[col], c) for col, c in solution]
        images.append(BimoduleElement(f, k, terms))
    return images


def _check_reach(kx, M, what):
    if M > kx.N:
        raise CochainError(
            f"{what} through degree {M} needs resolution data through degree {M}; "
            f"rebuild the complex with a larger N")


def _lifting_equation_into(out, kx, eta, lifting, m, r, scale):
    """Add scale . ((eta ox 1 - 1 ox eta) Delta + (-1)^{n-1} psi_{m-1} d)(eps^m_r),
    what d psi_m(eps^m_r) must equal, into the term dict out."""
    _rhs_into(out, kx, eta, m, r, scale)
    lifting.apply_into(out, kx._diff_eps(m, r), scale if eta.degree % 2 else -scale)


def solve_lifting(kx, eta, M, initial=None):
    """Solve for a homotopy lifting of the cocycle eta through degree M.

    `initial` may pin the images for low degrees (e.g. a golden lifting);
    the solver then extends it.  Output is deterministic.
    """
    n = eta.degree
    if n == 0:
        raise CochainError("liftings of degree-0 cochains are out of scope")
    _check_reach(kx, M, "lifting")
    maps = {m: list(images) for m, images in (initial or {}).items()}
    lifting = HomotopyLifting(kx, eta, maps)

    def target(m, r):
        out = {}
        _lifting_equation_into(out, kx, eta, lifting, m, r, 1)
        return BimoduleElement(kx.field, m - n, out)

    for m in range(n, M + 1):
        if m not in maps:
            maps[m] = _solve_images(kx, m, n, lambda r: target(m, r))
    return lifting


def lifting_residual(kx, eta, lifting, m, r):
    """d psi - (-1)^{n-1} psi d - (eta ox 1 - 1 ox eta) Delta at eps^m_r."""
    img = lifting.image(m, r)  # lives in K_{m-n+1}, degree >= 1 whenever m >= n
    res = {}
    for (u, i, v), c in img.terms.items():  # d psi(eps^m_r)
        kx.sandwich_into(res, u, kx._diff_eps(img.degree, i).terms, v, c)
    _lifting_equation_into(res, kx, eta, lifting, m, r, -1)
    return BimoduleElement(kx.field, m - eta.degree, res)


def verify_lifting(kx, eta, lifting, M):
    """((m, r), residual) for every nonzero residual in degrees n..M; the
    lifting must be built through degree M (CochainError otherwise)."""
    _check_reach(kx, M, "lifting check")
    return [((m, r), res) for m in range(eta.degree, M + 1) for r in range(kx.count(m))
            if not (res := lifting_residual(kx, eta, lifting, m, r)).is_zero()]


# -- derivation operators ------------------------------------------------------


def derivation_on_word(kx, gamma, path):
    """gamma extended to Lambda as a derivation, on one normal word:
    the sum over its arrows a of prefix . gamma(a) . suffix."""
    word_product, arrow_t = kx.rs.word_product, kx.quiver.arrow_t
    arrows = path.arrows
    acc = {}
    for k, a in enumerate(arrows):
        val = gamma.values[a].terms
        if not val:
            continue
        prefix, suffix = Path(path.o, arrows[:k]), Path(arrow_t[a], arrows[k + 1:])
        for w, c in val.items():
            for pw, cp in word_product(prefix, w).terms.items():
                cp = c * cp
                for u, cu in word_product(pw, suffix).terms.items():
                    acc[u] = acc.get(u, 0) + cp * cu
    return PathVector(kx.field, acc)


def derivation_on_element(kx, gamma, vec):
    acc = {}
    for path, coeff in vec.terms.items():
        for w, c in derivation_on_word(kx, gamma, path).terms.items():
            acc[w] = acc.get(w, 0) + c * coeff
    return PathVector(kx.field, acc)


def derivation_lift(kx, gamma, M):
    """The derivation operator gtilde of a degree-1 cocycle gamma through
    degree M, which is gamma's homotopy lifting (module docstring)."""
    if gamma.degree != 1:
        raise CochainError("derivation operators lift degree-1 cocycles")
    return solve_lifting(kx, gamma, M)
