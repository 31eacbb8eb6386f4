"""Command-line interface: load an algebra, run a computation, report.

Commands mirror the library surface: basis, comult, resolution, cohomology,
cup, lift, bracket (engines: lifting | derivation | bar), mc, tables,
verify-all.  Text output is for reading; --format structured emits one JSON
document with stable key and list order.  Exit status is 0 exactly when
every requested check passed.
"""

import argparse
import functools
import os
import sys

from . import algfile, presets
from .bracket import bracket_via_derivation, bracket_via_lifting, maurer_cartan_check, oracle_compare
from .cohomology import coboundary, cocycle_space, cup_product, same_class
from .errors import KoszulGerstError
from .fields import QQ, field_from_name
from .lifting import derivation_lift, solve_lifting, verify_lifting
from .linalg import echelon_basis
from .resolution import KoszulComplex
from .structured import dumps, letter, records, word_records

DEFAULT_N = 4
# 128 + SIGPIPE: the status a shell reports for a writer whose reader closed
EXIT_BROKEN_PIPE = 141


@functools.cache
def build_parser():
    """The command-line parser, built once per process: it holds no data, and
    every parse_args call returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="koszul-gerst",
        description="Exact Gerstenhaber structure on Hochschild cohomology of "
                    "Koszul quiver algebras.",
        epilog="KOSZUL_GERST_SEED fixes the sampling seed of the randomized "
               "property tests in the test suite.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, default_n=DEFAULT_N):
        p.add_argument("--preset", choices=presets.PRESET_FILES)
        p.add_argument("--algebra", metavar="FILE", help="algebra description file")
        p.add_argument("--q", metavar="LITERAL", help="parameter for the family preset")
        p.add_argument("--field", metavar="F", help="field override: Q or F<p>")
        p.add_argument("-N", type=int, default=default_n, metavar="DEGREE",
                       help="maximum homological degree")
        p.add_argument("--format", choices=("text", "structured"), default="text")
        return p

    common(sub.add_parser("basis", help="generators f^n_i and their counts"))
    p = common(sub.add_parser("comult", help="comultiplicative scalar slices"))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--r", type=int, default=None)
    p = common(sub.add_parser("resolution", help="differential, diagonal, embedding"))
    p.add_argument("--verify", action="store_true")
    p = common(sub.add_parser("cohomology", help="cocycle/coboundary bases and HH dims"))
    p.add_argument("--internal-degree", type=int, default=None, metavar="L")
    p = common(sub.add_parser("cup", help="cup product of two cochains"))
    p.add_argument("--left-degree", type=int, required=True)
    p.add_argument("--left", required=True)
    p.add_argument("--right-degree", type=int, required=True)
    p.add_argument("--right", required=True)
    p = common(sub.add_parser("lift", help="solve and verify a homotopy lifting"))
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--cocycle", required=True)
    p = common(sub.add_parser("bracket", help="Gerstenhaber bracket"))
    p.add_argument("--engine", choices=("lifting", "derivation", "bar"),
                   default="lifting")
    p.add_argument("--left-degree", type=int)
    p.add_argument("--left")
    p.add_argument("--right-degree", type=int)
    p.add_argument("--right")
    p = common(sub.add_parser("mc", help="Maurer-Cartan check for a 2-cochain"))
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
    if args.q is not None and args.preset != "family":
        raise KoszulGerstError("--q applies only to --preset family")
    if args.preset:
        f = field or QQ
        q = f.parse(args.q) if args.q is not None else None
        return presets.load_complex(args.preset, f, N, q=q)
    if args.algebra:
        try:
            with open(args.algebra, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            raise KoszulGerstError(f"cannot read algebra file {args.algebra}: {reason}") from exc
        pres = algfile.parse_presentation(text, field_override=field)
        return KoszulComplex(pres, N)
    raise KoszulGerstError("pass --preset or --algebra")


def _cocycle(kx, degree, text):
    """The cochain that text spells; anything but a cocycle is a usage error."""
    eta = algfile.parse_cochain(kx, degree, text)
    if not coboundary(eta).is_zero():
        raise KoszulGerstError("input cochain is not a cocycle")
    return eta


def emit(doc, fmt, lines):
    if fmt == "structured":
        print(dumps(doc))
    else:
        for line in lines:
            print(line)


def _identity_lines(report):
    """PASS or FAIL per identity checked, with the witness of each failure,
    which carries the name of the check it fails."""
    lines = []
    for name in report.checked:
        bad = [f for f in report.failures if f[0] == name]
        lines.append(f"{'PASS' if not bad else 'FAIL'}  {name}")
        lines += [f"      witness at degree {f[1]}, generator {f[2]}: {f[3]}"
                  for f in bad]
    return lines


# -- command bodies: each returns (doc, lines, status) for main to emit --------


def cmd_basis(args):
    kx = load_complex(args)
    doc = {"command": "basis", "degrees": []}
    lines = []
    for n, level in enumerate(kx.cobasis.elements):
        gens = [g.format(kx.quiver) for g in level]
        doc["degrees"].append({"n": n, "count": len(gens), "generators": gens})
        lines.append(f"degree {n}: {len(gens)} generators")
        for i, g in enumerate(gens):
            lines.append(f"  f^{n}_{i} = {g}")
    return doc, lines, 0


def cmd_comult(args):
    kx = load_complex(args)
    doc = {"command": "comult", "entries": []}
    lines = []
    if args.n is not None and not 0 <= args.n <= kx.N:
        raise KoszulGerstError(f"--n must be in 0..{kx.N}, got {args.n}")
    if args.r is not None and args.r < 0:
        raise KoszulGerstError(f"--r must be at least 0, got {args.r}")
    top = kx.N if args.n is None else args.n  # split R exists from degree R up
    if args.r is not None and args.r > top:
        raise KoszulGerstError(f"--r must be in 0..{top}, got {args.r}")
    if args.n is not None:
        ns = [args.n]
    elif args.r is not None:
        ns = range(args.r, kx.N + 1)
    else:
        ns = range(kx.N + 1)
    for n in ns:
        rs_range = [args.r] if args.r is not None else list(range(n + 1))
        for r in rs_range:
            for i in range(kx.count(n)):
                for (p, q), c in sorted(kx.c(n, i, r).items()):
                    value = kx.field.format(c)
                    doc["entries"].append(
                        {"n": n, "i": i, "r": r, "p": p, "q": q, "value": value})
                    lines.append(f"c_({p},{q})({n},{i},{r}) = {value}")
    return doc, lines, 0


def cmd_resolution(args):
    kx = load_complex(args)
    doc = {"command": "resolution", "differentials": [], "diagonals": [], "embeddings": []}
    lines = []
    for n in range(1, kx.N + 1):
        for i in range(kx.count(n)):
            d = kx._diff_eps(n, i).format(kx.quiver)
            doc["differentials"].append({"n": n, "i": i, "value": d})
            lines.append(f"d(eps^{n}_{i}) = {d}")
    q, fmt = kx.quiver, kx.field.format
    for n in range(kx.N + 1):
        for r in range(kx.count(n)):
            terms = kx.diagonal(n, r)
            if args.format == "structured":
                doc["diagonals"].append({"n": n, "r": r, "terms": records(
                    ("v", "p", "q", "coeff"), [(v, i, j, fmt(c)) for v, i, j, c in terms])})
            else:
                lines.append(f"Delta(eps^{n}_{r}) = " + " + ".join(
                    f"{fmt(c)}*eps^{v}_{i} ox eps^{n - v}_{j}" for v, i, j, c in terms))
    # iota(eps^n_r) = e_o ox (the letters of each word of f^n_r) ox e_t, its bar words
    # in their letters' repr order (Quiver.letters).  Word x is word x // A then arrow
    # x % A (KoszulCobasis._spell), so its sort key, base len(letters), and run extend x // A's
    if args.format == "structured":
        letters, A, step = q.letters(), q.num_arrows, [letter(name) for name in q.arrow_names]
        place = [letters.index(q.arrow_path(a)) for a in range(A)]
        keys, runs = {0: 0}, {0: ""}  # degree 0: the empty word, each arrow's prefix
        for n in range(1, kx.N + 1):
            level = [kx.cobasis.codes(n, r) for r in range(kx.count(n))]
            keys = {x: keys[x // A] * len(letters) + place[x % A] for c in level for x in c}
            runs = {x: runs[x // A] + step[x % A] for x in keys}
            for r, codes in enumerate(level):
                head, tail = (q.format_path(q.vertex_path(v)) for v in kx.cobasis.o(n, r))
                doc["embeddings"].append({"n": n, "r": r, "terms": word_records(
                    ("word", "coeff"), head, tail,
                    [(runs[x], fmt(codes[x])) for x in sorted(codes, key=keys.get)])})
    status = 0
    if args.verify:
        report = kx.verify_resolution()
        doc["verify"] = {"ok": report.ok,
                         "checked": report.checked,
                         "failures": [list(map(str, f)) for f in report.failures]}
        lines += _identity_lines(report)
        status = 0 if report.ok else 1
    return doc, lines, status


def cmd_cohomology(args):
    if args.internal_degree is not None and args.internal_degree < 0:
        raise KoszulGerstError("--internal-degree must be at least 0")
    kx = load_complex(args)
    doc = {"command": "cohomology", "spaces": []}
    lines = []
    for n in range(kx.N):
        space = cocycle_space(kx, n, args.internal_degree)
        cocycles = [c.format() for c in space.cocycles]
        if args.format == "structured":  # text mode prints no coboundary
            doc["spaces"].append({
                "degree": n,
                "internal_degrees": list(space.internal_degrees),
                "cocycles": cocycles,
                "coboundaries": [c.format() for c in space.coboundaries],
                "hh_dim": space.hh_dim,
            })
        lines.append(f"degree {n}: dim Z = {len(space.cocycles)}, "
                     f"dim B = {len(space.coboundaries)}, dim HH = {space.hh_dim}")
        for c in cocycles:
            lines.append(f"  cocycle {c}")
    return doc, lines, 0


def cmd_cup(args):
    kx = load_complex(args, min_n=args.left_degree + args.right_degree)
    left = algfile.parse_cochain(kx, args.left_degree, args.left)
    right = algfile.parse_cochain(kx, args.right_degree, args.right)
    result = cup_product(left, right).format()
    return {"command": "cup", "result": result}, [f"cup = {result}"], 0


def cmd_lift(args):
    kx = load_complex(args, min_n=args.degree + 1)
    eta = _cocycle(kx, args.degree, args.cocycle)
    lifting = solve_lifting(kx, eta, kx.N)
    bad = verify_lifting(kx, eta, lifting, kx.N)
    doc = {"command": "lift", "degree": args.degree, "images": [], "ok": not bad}
    lines = []
    for m in sorted(lifting.maps):
        for r, img in enumerate(lifting.maps[m]):
            value = img.format(kx.quiver)
            doc["images"].append({"m": m, "r": r, "value": value})
            lines.append(f"psi(eps^{m}_{r}) = {value}")
    lines.append("verify: " + ("PASS" if not bad else "FAIL"))
    return doc, lines, 0 if not bad else 1


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
        return doc, [f"bar oracle {report.degrees}: {len(report.pairs)} pairs, "
                     f"{'all agree' if report.ok else 'MISMATCH'}"], 0 if report.ok else 1
    if None in (args.left_degree, args.left, args.right_degree, args.right):
        raise KoszulGerstError("bracket wants --left-degree/--left/--right-degree/--right")
    deg = args.left_degree + args.right_degree - 1
    # the coboundary of an n-cochain needs degree n + 1, the bracket deg + 1
    kx = load_complex(args, min_n=max(args.left_degree, args.right_degree, deg) + 1)
    left = _cocycle(kx, args.left_degree, args.left)
    right = _cocycle(kx, args.right_degree, args.right)
    if args.engine == "derivation":
        if args.left_degree != 1:
            raise KoszulGerstError("derivation engine wants a degree-1 left cocycle")
        op = derivation_lift(kx, left, args.right_degree)
        bad = verify_lifting(kx, left, op, args.right_degree)
        if bad:
            (m, r), _ = bad[0]
            raise KoszulGerstError(
                f"derivation operator fails the lifting equation at eps^{m}_{r}")
        result = bracket_via_derivation(kx, left, right, op)
    else:
        psi_left = solve_lifting(kx, left, deg)
        psi_right = solve_lifting(kx, right, deg)
        result = bracket_via_lifting(kx, left, right, psi_left, psi_right)
    value = result.format()
    doc = {"command": "bracket", "engine": args.engine, "result": value}
    return doc, [f"[left, right] = {value}"], 0


def cmd_mc(args):
    kx = load_complex(args, min_n=3)
    eta = _cocycle(kx, 2, args.cocycle)
    psi = solve_lifting(kx, eta, 3)
    report = maurer_cartan_check(kx, eta, psi)
    residual = report.residual.format()
    doc = {"command": "mc", "exact": report.exact, "class_level": report.class_level,
           "residual": residual}
    lines = [f"exact: {'PASS' if report.exact else 'FAIL'}",
             f"class level: {'PASS' if report.class_level else 'FAIL'}",
             f"residual: {residual}"]
    return doc, lines, 0 if report.exact else 1


def _check_table(kx, golden, degree):
    """Each golden vector is a cocycle and the goldens span the cocycle space."""
    ok = all(coboundary(g).is_zero() for g in golden)
    space = cocycle_space(kx, degree)
    span_ok = len(space.cocycles) == len(golden) == len(echelon_basis(golden, None))
    return ok, span_ok


def _run_tables(args, kx, doc, lines):
    """Shared body of `tables` and `verify-all`: adds each check to
    doc["checks"] and lines, and returns whether all passed, or None for
    family off q = 1, where no golden table applies."""
    ok_all = True

    def record(name, ok, detail=""):
        nonlocal ok_all
        ok_all = ok_all and ok
        doc["checks"].append({"name": name, "ok": ok, "detail": detail})
        lines.append(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  ({detail})" if detail else ""))

    if args.preset == "family":
        if kx.presentation.params.get("q") != kx.field.one:
            return None
        t1 = presets.family_table1(kx)
        ok, span_ok = _check_table(kx, t1, 2)
        record("degree-2 cocycle table: all 9 vectors in ker d*", ok)
        record("degree-2 cocycle table spans the cocycle space", span_ok)
        t2 = presets.family_table2(kx)
        ok, span_ok = _check_table(kx, t2, 1)
        record("degree-1 cocycle table: all 6 vectors in ker d*", ok)
        record("degree-1 cocycle table spans the cocycle space", span_ok)
        named = presets.family_named_cocycles(kx)
        table3 = presets.family_table3(kx, named)
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
        doc["exact_matches"] = exact_hits
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
    return ok_all


def cmd_tables(args):
    kx = load_complex(args, min_n=4)
    doc, lines = {"command": "tables", "checks": []}, []
    ok = _run_tables(args, kx, doc, lines)
    if ok is None:
        raise KoszulGerstError("the golden tables are pinned at q = 1; rerun with --q 1")
    doc["ok"] = ok
    return doc, lines, 0 if ok else 1


def cmd_verify_all(args):
    kx = load_complex(args, min_n=4)
    report = kx.verify_resolution()
    doc = {"command": "verify-all", "checks": [
        {"name": "resolution identities", "ok": report.ok,
         "failures": [list(map(str, f)) for f in report.failures]}]}
    lines = _identity_lines(report)
    tables = _run_tables(args, kx, doc, lines) if args.preset else True
    if tables is None:
        lines.append("(golden tables skipped: pinned at q = 1)")
        doc["checks"].append({"name": "golden tables", "ok": True,
                              "detail": "skipped: pinned at q = 1"})
    doc["ok"] = ok = report.ok and tables is not False
    return doc, lines, 0 if ok else 1


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
        doc, lines, status = COMMANDS[args.command](args)
        emit(doc, args.format, lines)
        # flush here, not at interpreter exit, so a closed pipe raises below
        sys.stdout.flush()
        return status
    except KoszulGerstError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed early (`| head`): send the rest of the buffered
        # output to devnull so the interpreter's final flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
