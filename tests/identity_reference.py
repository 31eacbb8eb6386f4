"""Four resolution identities as the package checked them on Path keys.

Kept as the reference for `KoszulComplex`'s checks on int letters: here
d^2 = 0 is the Path-level augmentation (`augment`) of d in degree 1 and the
differential of d above, (d ox 1 + 1 ox d)Delta = Delta d and
coassociativity build both sides keyed by shared vertex and arrow Paths,
and the counit laws scan every term of the diagonal.  Each builds lhs and
rhs as two SparseVectors (rhs 0 for d^2), keyed as the int checks decode
their keys, and compares them; `diff_witness` names the first key where
they differ, with the coefficient of lhs - rhs there.  `reference_failures`
returns the failures in the order verify_resolution reports them: identity
by identity, then by (n, r).  `eps` is the generator eps^n_i of K_n as a
BimoduleElement, and `double_scalar` seeds a fault in the scalar table.
"""

from koszulgerst.linalg import SparseVector
from koszulgerst.quiver import Path, PathVector
from koszulgerst.resolution import BimoduleElement

D_SQUARED = "d*d=0"
DG_COMPAT = "(d ox 1 + 1 ox d)Delta = Delta d"
COASSOC = "(Delta ox 1)Delta = (1 ox Delta)Delta"
COUNIT = "(mu ox 1)Delta = id = (1 ox mu)Delta"


def eps(kx, n, i):
    """The generator eps^n_i = e_o . eps^n_i . e_t of K_n."""
    q, (o, t) = kx.quiver, kx.cobasis.o(n, i)
    return BimoduleElement(kx.field, n, {(q.vertex_path(o), i, q.vertex_path(t)): kx.field.one})


def double_scalar(kx, n, r, v):
    """Double the first c_pq(n, r, v) in kx's scalar table and drop the
    cached diagonals: a seeded fault that every slice or differential built
    afterwards reads."""
    row = dict(kx.c(n, r, v))
    key = next(iter(row))
    row[key] = kx.field(2) * row[key]
    kx.comult._cache[(n, v)][r] = row
    kx._diag_cache.clear()


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
    """d(d(eps^n_i)) keyed (u, "eps^{n-2}_k", v), and in degree 1 the
    augmentation of d(eps^1_i) keyed (word,)."""
    f = kx.field
    for n in range(1, N + 1):
        for i in range(kx.count(n)):
            if n == 1:
                val = {(w,): c for w, c in augment(kx, kx._diff_eps(1, i)).terms.items()}
            else:
                val = {(u, f"eps^{n - 2}_{k}", v): c for (u, k, v), c
                       in kx.differential(kx._diff_eps(n, i)).terms.items()}
            if val:
                failures.append((D_SQUARED, n, i, diff_witness(
                    kx.quiver, SparseVector(f, val), SparseVector(f))))


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


def check_counit(kx, N, failures):
    """mu sends e_p ox eps^n_q to eps^n_q when q starts at p, and eps^n_p ox
    e_q to eps^n_p when p ends at q: every term of Delta(eps^n_r) with a
    degree-0 factor, keyed ("mu ox 1", eps^n_q) or ("1 ox mu", eps^n_p),
    against eps^n_r on both sides."""
    f, cb = kx.field, kx.cobasis
    for n in range(0, N + 1):
        for r in range(kx.count(n)):
            lhs = {}
            for dl, p, q, coeff in kx.diagonal(n, r):
                if dl == 0 and cb.origin(n, q) == p:
                    key = ("mu ox 1", f"eps^{n}_{q}")
                    lhs[key] = lhs.get(key, 0) + coeff
                if dl == n and cb.target(n, p) == q:
                    key = ("1 ox mu", f"eps^{n}_{p}")
                    lhs[key] = lhs.get(key, 0) + coeff
            rhs = {(side, f"eps^{n}_{r}"): f.one for side in ("mu ox 1", "1 ox mu")}
            lhs, rhs = SparseVector(f, lhs), SparseVector(f, rhs)
            if lhs != rhs:
                failures.append((COUNIT, n, r, diff_witness(kx.quiver, lhs, rhs)))


def reference_failures(kx, N):
    """The failures of the four identities through degree N, in report order."""
    failures = []
    for check in (check_d_squared, check_dg_compat, check_coassoc, check_counit):
        check(kx, N, failures)
    return failures
