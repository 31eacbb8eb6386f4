"""Brackets, class comparison and the bar oracle, built value by value.

Kept as the reference for `bracket` and `cohomology`: here both sides of
every bracket and Maurer-Cartan value are evaluated as separate vectors,
then scaled and combined; `same_class` solves for a witness even when the
representatives are equal; and `oracle_compare` computes each side's bar
basis, restrictions and liftings on its own, also when the degrees agree.
"""

from koszulgerst.bracket import OraclePairResult, OracleReport, bar_cocycle_basis
from koszulgerst.cohomology import Cochain, is_coboundary
from koszulgerst.lifting import derivation_on_element, solve_lifting
from koszulgerst.linalg import GradedVector
from koszulgerst.quiver import PathVector


def _sign(field, m, n):
    return field.one if ((m - 1) * (n - 1)) % 2 == 0 else field.neg(field.one)


def evaluate(eta, x):
    """eta on a bimodule element: u . eps_i . v -> u lambda_i v."""
    word_product = eta.kx.rs.word_product
    acc = {}
    for (u, i, v), coeff in x.terms.items():
        for w, cw in eta.values[i].terms.items():
            for uw, cu in word_product(u, w).terms.items():
                for p, cp in word_product(uw, v).terms.items():
                    acc[p] = acc.get(p, 0) + coeff * cw * cu * cp
    return PathVector(eta.kx.field, acc)


def same_class(a, b):
    return is_coboundary(a - b) is not None


def bracket_via_lifting(kx, eta, theta, psi_eta, psi_theta):
    n, m = eta.degree, theta.degree
    deg = n + m - 1
    sign = _sign(kx.field, m, n)
    values = []
    for r in range(kx.count(deg)):
        first = evaluate(eta, psi_theta.image(deg, r))
        second = evaluate(theta, psi_eta.image(deg, r))
        values.append(first - second.scale(sign))
    return Cochain.from_values(kx, deg, values)


def bracket_via_derivation(kx, gamma, chi, deriv):
    n = chi.degree
    values = []
    for r in range(kx.count(n)):
        first = derivation_on_element(kx, gamma, chi.values[r])
        values.append(first - evaluate(chi, deriv.image(n, r)))
    return Cochain.from_values(kx, n, values)


def maurer_cartan_residual(kx, eta, psi_eta):
    """eta psi_eta - eta d_3, the residual of maurer_cartan_check."""
    values = []
    for r in range(kx.count(3)):
        dbar = -evaluate(eta, kx._diff_eps(3, r))
        values.append(dbar + evaluate(eta, psi_eta.image(3, r)))
    return Cochain.from_values(kx, 3, values)


def bar_circle_product(kx, F, G):
    target = kx.quiver.path_target
    m, n = F.degree, G.degree
    through = {}
    for (tup, p), c in G.terms.items():
        through.setdefault(p, []).append((tup, c))
    out = {}
    for (key, w), v in F.terms.items():
        for j in range(1, m + 1):
            signed = -v if ((n - 1) * (j - 1)) % 2 else v
            for inner, c in through.get(key[j - 1], ()):
                tup = key[:j - 1] + inner + key[j:]
                if any(target(a) != b.o for a, b in zip(tup, tup[1:])):
                    continue
                out[(tup, w)] = out.get((tup, w), 0) + signed * c
    return GradedVector(kx.field, m + n - 1, out)


def bar_circle_bracket(kx, F, G):
    sign = _sign(kx.field, F.degree, G.degree)
    return bar_circle_product(kx, F, G) - bar_circle_product(kx, G, F).scale(sign)


def restrict_along_iota(kx, F):
    """F o iota from a letter table of its own."""
    f, n, q = kx.field, F.degree, kx.quiver
    words = {}
    for i in range(kx.count(n)):
        for path, coeff in kx.cobasis.f(n, i).terms.items():
            tup = tuple(q.arrow_path(a) for a in path.arrows)
            words.setdefault(tup, []).append((i, coeff))
    values = [{} for _ in range(kx.count(n))]
    for (tup, p), c in F.terms.items():
        for i, coeff in words.get(tup, ()):
            values[i][p] = values[i].get(p, 0) + c * coeff
    return Cochain.from_values(kx, n, [PathVector(f, acc) for acc in values])


def oracle_compare(kx, n, m):
    left = bar_cocycle_basis(kx, n)
    right = bar_cocycle_basis(kx, m)
    deg = n + m - 1
    left_data = [(F, restrict_along_iota(kx, F)) for F in left]
    right_data = [(G, restrict_along_iota(kx, G)) for G in right]
    left_lifts = [solve_lifting(kx, eta, deg) for _, eta in left_data]
    right_lifts = [solve_lifting(kx, theta, deg) for _, theta in right_data]
    pairs = []
    for i, (F, eta) in enumerate(left_data):
        for j, (G, theta) in enumerate(right_data):
            bar_side = restrict_along_iota(kx, bar_circle_bracket(kx, F, G))
            lift_side = bracket_via_lifting(kx, eta, theta, left_lifts[i], right_lifts[j])
            pairs.append(OraclePairResult(i, j, same_class(bar_side, lift_side)))
    return OracleReport((n, m), pairs)
