"""Three resolution identities as the package checked them on Path keys.

Kept as the reference for `KoszulComplex`'s checks on int letters: here
d^2 = 0 is the Path-level augmentation (`augment`) of d in degree 1 and the
differential of d above, and (d ox 1 + 1 ox d)Delta = Delta d and
coassociativity build both sides keyed by shared vertex and arrow Paths, as
two SparseVectors each, and compare them; `diff_witness` names the first
key where they differ, with the coefficient of lhs - rhs there.
`reference_failures` returns the failures in the order verify_resolution
reports them: identity by identity, then by (n, r).  `eps` is the generator
eps^n_i of K_n as a BimoduleElement.
"""

from koszulgerst.linalg import SparseVector
from koszulgerst.quiver import Path, PathVector
from koszulgerst.resolution import BimoduleElement

D_SQUARED = "d*d=0"
DG_COMPAT = "(d ox 1 + 1 ox d)Delta = Delta d"
COASSOC = "(Delta ox 1)Delta = (1 ox Delta)Delta"


def eps(kx, n, i):
    """The generator eps^n_i = e_o . eps^n_i . e_t of K_n."""
    q, (o, t) = kx.quiver, kx.cobasis.o(n, i)
    return BimoduleElement(kx.field, n, {(q.vertex_path(o), i, q.vertex_path(t)): kx.field.one})


def diff_witness(quiver, lhs, rhs):
    """The first key (in repr order) where two vectors differ, paths spelled
    out, with the coefficient of lhs - rhs there."""
    f = lhs.field
    for key in sorted(set(lhs.terms) | set(rhs.terms), key=repr):
        a, b = lhs.terms.get(key, f.zero), rhs.terms.get(key, f.zero)
        if a != b:
            shown = ", ".join(quiver.format_path(k) if isinstance(k, Path) else str(k)
                              for k in key)
            return f"term ({shown}): {f.format(a - b)}"
    return "?"


def augment(kx, x):
    """d_0: K_0 -> A, the multiplication map u . e_i . v -> u.v."""
    acc = {}
    for (u, _, v), coeff in x.terms.items():
        for w, c in kx.rs.word_product(u, v).terms.items():
            acc[w] = acc.get(w, 0) + c * coeff
    return PathVector(kx.field, acc)


def check_d_squared(kx, N, failures):
    for i in range(kx.count(1)):
        val = augment(kx, kx._diff_eps(1, i))
        if not val.is_zero():
            failures.append((D_SQUARED, 1, i, val.format(kx.quiver)))
    for n in range(2, N + 1):
        for i in range(kx.count(n)):
            val = kx.differential(kx._diff_eps(n, i))
            if not val.is_zero():
                failures.append((D_SQUARED, n, i, val.format(kx.quiver)))


def check_dg_compat(kx, N, failures):
    """Both sides over K ox_Lambda K, keyed (dl, u, p, w, q, v) for
    u . eps^dl_p . w ox eps^{n-1-dl}_q . v."""
    f, cb, vertex = kx.field, kx.cobasis, kx.quiver.vertex_path
    for n in range(1, N + 1):
        for r in range(kx.count(n)):
            lhs, rhs = {}, {}
            for dl, p, q, coeff in kx.diagonal(n, r):
                if dl >= 1:  # d(eps^dl_p) ox eps_q
                    v = vertex(cb.target(n - dl, q))
                    for (u2, p2, w2), c2 in kx._diff_eps(dl, p).terms.items():
                        key = (dl - 1, u2, p2, w2, q, v)
                        lhs[key] = lhs.get(key, 0) + coeff * c2
                if dl < n:  # (-1)^dl eps_p ox d(eps^{n-dl}_q)
                    signed = -coeff if dl % 2 else coeff
                    u = vertex(cb.origin(dl, p))
                    for (w2, q2, v2), c2 in kx._diff_eps(n - dl, q).terms.items():
                        key = (dl, u, p, w2, q2, v2)
                        lhs[key] = lhs.get(key, 0) + signed * c2
            # Delta(u . eps^{n-1}_i . v) puts u and v around each diagonal term
            for (u, i, v), coeff in kx._diff_eps(n, r).terms.items():
                for dl, p, q, c in kx.diagonal(n - 1, i):
                    key = (dl, u, p, vertex(cb.target(dl, p)), q, v)
                    rhs[key] = rhs.get(key, 0) + coeff * c
            lhs, rhs = SparseVector(f, lhs), SparseVector(f, rhs)
            if lhs != rhs:
                failures.append((DG_COMPAT, n, r, diff_witness(kx.quiver, lhs, rhs)))


def check_coassoc(kx, N, failures):
    """Both sides keyed (v1, v2, p1, p2, p3) for eps^v1_p1 ox eps^v2_p2 ox eps_p3."""
    f = kx.field
    for n in range(0, N + 1):
        for r in range(kx.count(n)):
            lhs, rhs = {}, {}
            for dl, p, q, coeff in kx.diagonal(n, r):
                for t in kx.diagonal(dl, p):  # (Delta ox 1)
                    key = (t.left_degree, dl - t.left_degree, t.left_index,
                           t.right_index, q)
                    lhs[key] = lhs.get(key, 0) + coeff * t.coeff
                for t in kx.diagonal(n - dl, q):  # (1 ox Delta)
                    key = (dl, t.left_degree, p, t.left_index, t.right_index)
                    rhs[key] = rhs.get(key, 0) + coeff * t.coeff
            lhs, rhs = SparseVector(f, lhs), SparseVector(f, rhs)
            if lhs != rhs:
                failures.append((COASSOC, n, r, diff_witness(kx.quiver, lhs, rhs)))


def reference_failures(kx, N):
    """The failures of the three identities through degree N, in report order."""
    failures = []
    for check in (check_d_squared, check_dg_compat, check_coassoc):
        check(kx, N, failures)
    return failures
