"""Command-line interface: load an algebra, run a computation, report.

Commands mirror the library surface: basis, comult, resolution, cohomology,
cup, lift, bracket (engines: lifting | derivation | bar), mc, tables,
verify-all.  Text output is for reading; --format structured emits one JSON
document with stable key and list order.  Exit status is 0 exactly when
every requested check passed.
"""

import argparse
import json
import sys

from . import algfile, presets
from .bracket import bracket_via_derivation, bracket_via_lifting, maurer_cartan_check, oracle_compare
from .cohomology import Cochain, coboundary, cocycle_space, cup_product, same_class
from .errors import KoszulGerstError
from .fields import QQ, field_from_name
from .lifting import derivation_lift, solve_lifting, verify_lifting
from .resolution import KoszulComplex

DEFAULT_N = 4


def build_parser():
    parser = argparse.ArgumentParser(
        prog="koszul-gerst",
        description="Exact Gerstenhaber structure on Hochschild cohomology of "
                    "Koszul quiver algebras.",
        epilog="KOSZUL_GERST_SEED fixes the sampling seed of the randomized "
               "property tests in the test suite.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, default_n=DEFAULT_N):
        p.add_argument("--preset", choices=presets.PRESET_NAMES)
        p.add_argument("--algebra", metavar="FILE", help="algebra description file")
        p.add_argument("--q", metavar="LITERAL", help="parameter for the family preset")
        p.add_argument("--field", metavar="F", help="field override: Q or F<p>")
        p.add_argument("-N", type=int, default=default_n, metavar="DEGREE",
                       help="maximum homological degree")
        p.add_argument("--internal-degree", type=int, default=None, metavar="L")
        p.add_argument("--format", choices=("text", "structured"), default="text")

    common(sub.add_parser("basis", help="generators f^n_i and their counts"))
    p = sub.add_parser("comult", help="comultiplicative scalar slices")
    common(p)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--r", type=int, default=None)
    p = sub.add_parser("resolution", help="differential, diagonal, embedding")
    common(p)
    p.add_argument("--verify", action="store_true")
    common(sub.add_parser("cohomology", help="cocycle/coboundary bases and HH dims"))
    p = sub.add_parser("cup", help="cup product of two cochains")
    common(p)
    p.add_argument("--left-degree", type=int, required=True)
    p.add_argument("--left", required=True)
    p.add_argument("--right-degree", type=int, required=True)
    p.add_argument("--right", required=True)
    p = sub.add_parser("lift", help="solve and verify a homotopy lifting")
    common(p)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--cocycle", required=True)
    p = sub.add_parser("bracket", help="Gerstenhaber bracket")
    common(p)
    p.add_argument("--engine", choices=("lifting", "derivation", "bar"),
                   default="lifting")
    p.add_argument("--left-degree", type=int)
    p.add_argument("--left")
    p.add_argument("--right-degree", type=int)
    p.add_argument("--right")
    p = sub.add_parser("mc", help="Maurer-Cartan check for a 2-cochain")
    common(p)
    p.add_argument("--cocycle", required=True)
    common(sub.add_parser("tables", help="re-derive the golden tables"), default_n=6)
    common(sub.add_parser("verify-all", help="run every structural check"), default_n=6)
    return parser


def load_complex(args, min_n=1):
    N = max(args.N, min_n)
    if args.N < 1:
        raise KoszulGerstError("N must be at least 1")
    field = field_from_name(args.field) if args.field else None
    if args.preset and args.algebra:
        raise KoszulGerstError("pass either --preset or --algebra, not both")
    if args.preset:
        f = field or QQ
        q = f.parse(args.q) if args.q is not None else None
        return presets.load_complex(args.preset, f, N, q=q)
    if args.algebra:
        with open(args.algebra, "r", encoding="utf-8") as fh:
            text = fh.read()
        pres = algfile.parse_presentation(text, field_override=field)
        return KoszulComplex(pres, N)
    raise KoszulGerstError("pass --preset or --algebra")


def _cochain(kx, degree, text):
    return Cochain(kx, degree, algfile.parse_cochain(kx, degree, text))


def emit(doc, fmt, lines):
    if fmt == "structured":
        print(json.dumps(doc, indent=2))
    else:
        for line in lines:
            print(line)


# -- command bodies ------------------------------------------------------------


def cmd_basis(args):
    kx = load_complex(args)
    doc = {"command": "basis", "degrees": []}
    lines = []
    for n in range(kx.N + 1):
        gens = [kx.cobasis.f(n, i).format(kx.quiver) for i in range(kx.count(n))]
        doc["degrees"].append({"n": n, "count": kx.count(n), "generators": gens})
        lines.append(f"degree {n}: {kx.count(n)} generators")
        for i, g in enumerate(gens):
            lines.append(f"  f^{n}_{i} = {g}")
    emit(doc, args.format, lines)
    return 0


def cmd_comult(args):
    kx = load_complex(args)
    doc = {"command": "comult", "entries": []}
    lines = []
    ns = [args.n] if args.n is not None else list(range(kx.N + 1))
    for n in ns:
        rs_range = [args.r] if args.r is not None else list(range(n + 1))
        for r in rs_range:
            for i in range(kx.count(n)):
                for (p, q), c in sorted(kx.c(n, i, r).items()):
                    doc["entries"].append(
                        {"n": n, "i": i, "r": r, "p": p, "q": q,
                         "value": kx.field.format(c)})
                    lines.append(f"c_({p},{q})({n},{i},{r}) = {kx.field.format(c)}")
    emit(doc, args.format, lines)
    return 0


def cmd_resolution(args):
    kx = load_complex(args)
    doc = {"command": "resolution", "differentials": [], "diagonals": [],
           "embeddings": []}
    lines = []
    for n in range(1, kx.N + 1):
        for i in range(kx.count(n)):
            d = kx._diff_eps(n, i).format(kx.quiver)
            doc["differentials"].append({"n": n, "i": i, "value": d})
            lines.append(f"d(eps^{n}_{i}) = {d}")
    for n in range(kx.N + 1):
        for r in range(kx.count(n)):
            terms = [{"v": t.left_degree, "p": t.left_index, "q": t.right_index,
                      "coeff": kx.field.format(t.coeff)} for t in kx.diagonal(n, r)]
            doc["diagonals"].append({"n": n, "r": r, "terms": terms})
            pretty = " + ".join(
                f"{t['coeff']}*eps^{t['v']}_{t['p']} ox eps^{n - t['v']}_{t['q']}"
                for t in terms)
            lines.append(f"Delta(eps^{n}_{r}) = {pretty}")
    for n in range(1, kx.N + 1):
        for r in range(kx.count(n)):
            bar = kx.iota(n, r)
            words = [{"word": [kx.quiver.format_path(w) for w in key],
                      "coeff": kx.field.format(c)}
                     for key, c in sorted(bar.terms.items(), key=lambda kv: repr(kv[0]))]
            doc["embeddings"].append({"n": n, "r": r, "terms": words})
    status = 0
    if getattr(args, "verify", False):
        report = kx.verify_resolution()
        doc["verify"] = {"ok": report.ok,
                         "checked": report.checked,
                         "failures": [list(map(str, f)) for f in report.failures]}
        for name in report.checked:
            bad = [f for f in report.failures if f[0] == name]
            lines.append(f"{'PASS' if not bad else 'FAIL'}  {name}")
            for f in bad:
                lines.append(f"      witness at degree {f[1]}, generator {f[2]}: {f[3]}")
        status = 0 if report.ok else 1
    emit(doc, args.format, lines)
    return status


def cmd_cohomology(args):
    kx = load_complex(args)
    doc = {"command": "cohomology", "spaces": []}
    lines = []
    for n in range(kx.N):
        space = cocycle_space(kx, n, args.internal_degree)
        doc["spaces"].append({
            "degree": n,
            "internal_degrees": list(space.internal_degrees),
            "cocycles": [c.format() for c in space.cocycles],
            "coboundaries": [c.format() for c in space.coboundaries],
            "hh_dim": space.hh_dim,
        })
        lines.append(f"degree {n}: dim Z = {len(space.cocycles)}, "
                     f"dim B = {len(space.coboundaries)}, dim HH = {space.hh_dim}")
        for c in space.cocycles:
            lines.append(f"  cocycle {c.format()}")
    emit(doc, args.format, lines)
    return 0


def cmd_cup(args):
    kx = load_complex(args, min_n=args.left_degree + args.right_degree)
    left = _cochain(kx, args.left_degree, args.left)
    right = _cochain(kx, args.right_degree, args.right)
    result = cup_product(left, right)
    doc = {"command": "cup", "result": result.format()}
    emit(doc, args.format, [f"cup = {result.format()}"])
    return 0


def cmd_lift(args):
    kx = load_complex(args, min_n=args.degree + 1)
    eta = _cochain(kx, args.degree, args.cocycle)
    if not coboundary(eta).is_zero():
        raise KoszulGerstError("input cochain is not a cocycle")
    lifting = solve_lifting(kx, eta, kx.N)
    bad = verify_lifting(kx, eta, lifting, kx.N)
    doc = {"command": "lift", "degree": args.degree, "images": [], "ok": not bad}
    lines = []
    for m in sorted(lifting.maps):
        for r, img in enumerate(lifting.maps[m]):
            doc["images"].append({"m": m, "r": r, "value": img.format(kx.quiver)})
            lines.append(f"psi(eps^{m}_{r}) = {img.format(kx.quiver)}")
    lines.append("verify: " + ("PASS" if not bad else "FAIL"))
    emit(doc, args.format, lines)
    return 0 if not bad else 1


def cmd_bracket(args):
    if args.engine == "bar":
        if args.left_degree is None or args.right_degree is None:
            raise KoszulGerstError("bar engine wants --left-degree and --right-degree")
        kx = load_complex(args, min_n=args.left_degree + args.right_degree)
        report = oracle_compare(kx, args.left_degree, args.right_degree)
        doc = {"command": "bracket", "engine": "bar",
               "degrees": list(report.degrees),
               "pairs": [{"left": p.left_index, "right": p.right_index,
                          "agree": p.agree} for p in report.pairs],
               "ok": report.ok}
        emit(doc, args.format,
             [f"bar oracle {report.degrees}: {len(report.pairs)} pairs, "
              f"{'all agree' if report.ok else 'MISMATCH'}"])
        return 0 if report.ok else 1
    if None in (args.left_degree, args.left, args.right_degree, args.right):
        raise KoszulGerstError("bracket wants --left-degree/--left/--right-degree/--right")
    deg = args.left_degree + args.right_degree - 1
    kx = load_complex(args, min_n=deg + 1)
    left = _cochain(kx, args.left_degree, args.left)
    right = _cochain(kx, args.right_degree, args.right)
    if args.engine == "derivation":
        if args.left_degree != 1:
            raise KoszulGerstError("derivation engine wants a degree-1 left cocycle")
        op = derivation_lift(kx, left, args.right_degree)
        result = bracket_via_derivation(kx, left, right, op)
    else:
        psi_left = solve_lifting(kx, left, deg)
        psi_right = solve_lifting(kx, right, deg)
        result = bracket_via_lifting(kx, left, right, psi_left, psi_right)
    doc = {"command": "bracket", "engine": args.engine, "result": result.format()}
    emit(doc, args.format, [f"[left, right] = {result.format()}"])
    return 0


def cmd_mc(args):
    kx = load_complex(args, min_n=3)
    eta = _cochain(kx, 2, args.cocycle)
    if not coboundary(eta).is_zero():
        raise KoszulGerstError("input cochain is not a cocycle")
    psi = solve_lifting(kx, eta, 3)
    report = maurer_cartan_check(kx, eta, psi)
    doc = {"command": "mc", "exact": report.exact, "class_level": report.class_level,
           "residual": report.residual.format()}
    lines = [f"exact: {'PASS' if report.exact else 'FAIL'}",
             f"class level: {'PASS' if report.class_level else 'FAIL'}",
             f"residual: {report.residual.format()}"]
    emit(doc, args.format, lines)
    return 0 if report.exact else 1


def _check_table(kx, golden, degree):
    """Each golden vector is a cocycle and the goldens span the cocycle space."""
    from .linalg import Matrix, rank
    ok = all(coboundary(g).is_zero() for g in golden)
    space = cocycle_space(kx, degree)
    span_ok = len(space.cocycles) == len(golden)
    if ok and span_ok:
        from .cohomology import _cochain_coords
        coords = []
        for e in sorted({d for g in golden for d in g.internal_degrees()} | set(space.internal_degrees)):
            coords.extend([(e, c) for c in _cochain_coords(kx, degree, e)])
        index = {c: i for i, c in enumerate(coords)}
        entries = {}
        for col, g in enumerate(golden):
            for i, val in enumerate(g.values):
                for w, c in val.terms.items():
                    entries[(index[(len(w.arrows), (i, w))], col)] = c
        A = Matrix(kx.field, len(coords), len(golden), entries)
        span_ok = rank(A) == len(golden)
    return ok, span_ok


def _run_tables(args, kx):
    """Shared body of `tables`; returns (checks, extra doc fields, lines, ok)."""
    lines = []
    checks = []
    extra = {}
    ok_all = True

    def record(name, ok, detail=""):
        nonlocal ok_all
        ok_all = ok_all and ok
        checks.append({"name": name, "ok": ok, "detail": detail})
        lines.append(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  ({detail})" if detail else ""))

    if args.preset == "family":
        if kx.presentation.params.get("q") != kx.field.one:
            raise KoszulGerstError("the golden tables are pinned at q = 1; rerun with --q 1")
        t1 = presets.family_table1(kx)
        ok, span_ok = _check_table(kx, t1, 2)
        record("degree-2 cocycle table: all 9 vectors in ker d*", ok)
        record("degree-2 cocycle table spans the cocycle space", span_ok)
        t2 = presets.family_table2(kx)
        ok, span_ok = _check_table(kx, t2, 1)
        record("degree-1 cocycle table: all 6 vectors in ker d*", ok)
        record("degree-1 cocycle table spans the cocycle space", span_ok)
        named = presets.family_named_cocycles(kx)
        table3 = presets.family_table3(kx)
        lifts = {name: solve_lifting(kx, c, 3) for name, c in named.items()
                 if name != "theta"}
        exact_hits = 0
        for (a, b), golden in sorted(table3.items()):
            got = bracket_via_lifting(kx, named[a], named[b], lifts[a], lifts[b])
            cls = same_class(got, golden)
            exact = got == golden
            exact_hits += exact
            record(f"bracket [{a},{b}] matches table entry (class level)", cls,
                   "exact representative" if exact else "up to coboundary")
        lines.append(f"exact-representative matches: {exact_hits}/16")
        extra["exact_matches"] = exact_hits
    elif args.preset == "short":
        goldens = presets.short_goldens(kx)
        chi, theta = goldens["chi"], goldens["theta"]
        record("chi is a cocycle", coboundary(chi).is_zero())
        record("theta is a cocycle", coboundary(theta).is_zero())
        psi_chi = solve_lifting(kx, chi, 3, initial=goldens["psi_chi"].maps)
        psi_theta = solve_lifting(kx, theta, 3, initial=goldens["psi_theta"].maps)
        record("golden lifting of chi verifies",
               not verify_lifting(kx, chi, psi_chi, 3))
        record("golden lifting of theta verifies",
               not verify_lifting(kx, theta, psi_theta, 3))
        got = bracket_via_lifting(kx, chi, theta, psi_chi, psi_theta)
        record("[chi, theta] = -chi exactly", got == goldens["bracket_chi_theta"])
        solver_chi = solve_lifting(kx, chi, 3)
        solver_theta = solve_lifting(kx, theta, 3)
        got2 = bracket_via_lifting(kx, chi, theta, solver_chi, solver_theta)
        record("[chi, theta] = -chi up to coboundary with solver liftings",
               same_class(got2, goldens["bracket_chi_theta"]))
    else:
        raise KoszulGerstError("tables needs --preset short or --preset family")
    return checks, extra, lines, ok_all


def cmd_tables(args):
    kx = load_complex(args, min_n=4)
    checks, extra, lines, ok_all = _run_tables(args, kx)
    doc = {"command": "tables", "checks": checks, **extra, "ok": ok_all}
    emit(doc, args.format, lines)
    return 0 if ok_all else 1


def cmd_verify_all(args):
    kx = load_complex(args, min_n=4)
    lines = []
    doc = {"command": "verify-all", "checks": []}
    report = kx.verify_resolution()
    ok_all = report.ok
    doc["checks"].append({"name": "resolution identities", "ok": report.ok,
                          "failures": [list(map(str, f)) for f in report.failures]})
    for name in report.checked:
        bad = [f for f in report.failures if f[0] == name]
        lines.append(f"{'PASS' if not bad else 'FAIL'}  {name}")
    golden_applicable = (args.preset == "short"
                         or (args.preset == "family"
                             and kx.presentation.params.get("q") == kx.field.one))
    if golden_applicable:
        checks, extra, table_lines, tables_ok = _run_tables(args, kx)
        doc["checks"].extend(checks)
        doc.update(extra)
        lines.extend(table_lines)
        ok_all = ok_all and tables_ok
    elif args.preset == "family":
        lines.append("(golden tables skipped: pinned at q = 1)")
        doc["checks"].append({"name": "golden tables", "ok": True,
                              "detail": "skipped: pinned at q = 1"})
    doc["ok"] = ok_all
    emit(doc, args.format, lines)
    return 0 if ok_all else 1


COMMANDS = {
    "basis": cmd_basis,
    "comult": cmd_comult,
    "resolution": cmd_resolution,
    "cohomology": cmd_cohomology,
    "cup": cmd_cup,
    "lift": cmd_lift,
    "bracket": cmd_bracket,
    "mc": cmd_mc,
    "tables": cmd_tables,
    "verify-all": cmd_verify_all,
}


# flags whose value is a literal that may start with a minus sign, which
# argparse would otherwise take for an option
LITERAL_FLAGS = ("--cocycle", "--left", "--right", "--q")


def _attach_literals(argv):
    """Rewrite `--cocycle -3*a,...` as `--cocycle=-3*a,...`."""
    out = []
    for arg in argv:
        if out and out[-1] in LITERAL_FLAGS and arg.startswith("-") and not arg.startswith("--"):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(_attach_literals(sys.argv[1:] if argv is None else argv))
    try:
        return COMMANDS[args.command](args)
    except KoszulGerstError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
