"""Seeded inputs for the benchmark workloads.

A pass is the ordered list of `koszul-gerst` argument vectors of one
workload.  The seed picks the nonzero parameters of the generated algebra
files (`generic-Fp`) and the integer coefficients of the cocycle literals
(`brackets-Q`); `family-Q` is pinned by the preset's golden tables, so its
pass does not depend on the seed.  The program sees only the files written
here and the argument strings returned.

Why each workload exists (the same sentences are in BENCHMARK.json):

* family-Q: the flagship `verify-all` over Q on the preset tower: comult
  scalars, normal-form multiplication and the five resolution identities.
* generic-Fp: the only workload that parses algebra files and builds the
  generic span-intersection tower; prime-field arithmetic contrasts with
  the two Q workloads.
* brackets-Q: the only workload where cohomology, homotopy lifting and the
  bar-side bracket oracle do the work, through many small affine solves.
"""

import random

WORKLOADS = ("family-Q", "generic-Fp", "brackets-Q")
SEEDED = ("generic-Fp", "brackets-Q")
PRIME = 32003

STRUCTURED = ["--format", "structured"]
FAMILY_Q1 = ["--preset", "family", "--q", "1"]


def _rng(workload, seed):
    return random.Random(f"{workload}/{seed}")


def _unit(rng):
    """A parameter of F_PRIME that is neither 0 nor 1."""
    return rng.randrange(2, PRIME)


def _coeff(rng):
    """A nonzero integer coefficient in [-9, 9]."""
    return rng.choice([c for c in range(-9, 10) if c])


def quantum_exterior(names, rng):
    """x_i^2 = 0 and x_j x_i + q_ij x_i x_j = 0 for i < j, over F_PRIME."""
    lines = [f"field F{PRIME}", "vertex 1"]
    lines += [f"arrow {x} 1 1" for x in names]
    lines.append("order " + " > ".join(names))
    rels = [f"relation {x}.{x}" for x in names]
    for i, xi in enumerate(names):
        for xj in names[i + 1:]:
            lines.append(f"param q{xi}{xj} = {_unit(rng)}")
            rels.append(f"relation {xj}.{xi} + q{xi}{xj}*{xi}.{xj}")
    return "\n".join(lines + rels) + "\n"


def family_shaped(rng):
    """The `family` quiver and relations as a file, with q != 0, 1."""
    return "\n".join([
        f"field F{PRIME}", "vertex 1", "vertex 2",
        "arrow a 1 1", "arrow b 1 1", "arrow c 1 2", "order a > b > c",
        f"param q = {_unit(rng)}",
        "relation a.a", "relation b.b", "relation a.b - q*b.a", "relation a.c",
    ]) + "\n"


def _combo(coeffs, slots):
    """Cochain literal: slots[k] lists the (coefficient index, word) terms."""
    parts = []
    for terms in slots:
        text = "".join(f"{coeffs[k]:+d}*{word}" for k, word in terms)
        parts.append(text.lstrip("+") or "0")
    return ",".join(parts)


def lift_cocycles(rng):
    """Four homogeneous cocycles of `family` at q = 1, as (degree, literal).

    Each is an integer combination of the golden cocycle-table rows of one
    degree and one internal degree, so it is a cocycle by the tables.
    """
    c = [_coeff(rng) for _ in range(14)]
    return [
        (1, _combo(c[0:3], [[(0, "a")], [(1, "b")], [(2, "c")]])),
        (1, _combo(c[3:6], [[(0, "a.b")], [(1, "a.b")], [(2, "b.c")]])),
        (2, _combo(c[6:10], [[(0, "a")], [], [(1, "a"), (2, "b")], [(3, "c")]])),
        (2, _combo(c[10:14], [[(0, "a.b")], [(1, "a.b")], [(2, "a.b")], [(3, "b.c")]])),
    ]


def make_pass(workload, seed, workdir):
    """Write the workload's input files under workdir; return its argv list."""
    if workload == "family-Q":
        return [["verify-all", *FAMILY_Q1, "-N", "8", *STRUCTURED]]
    rng = _rng(workload, seed)
    if workload == "generic-Fp":
        workdir.mkdir(parents=True, exist_ok=True)
        algebras = [("ext3.alg", quantum_exterior(["x", "y", "z"], rng), 6),
                    ("ext4.alg", quantum_exterior(["x", "y", "z", "w"], rng), 4),
                    ("family.alg", family_shaped(rng), 8)]
        argvs = []
        for name, text, degree in algebras:
            path = workdir / name
            path.write_text(text, encoding="utf-8")
            argvs.append(["resolution", "--verify", "--algebra", str(path),
                          "-N", str(degree), *STRUCTURED])
        return argvs
    if workload == "brackets-Q":
        argvs = [["tables", *FAMILY_Q1, "-N", "6", *STRUCTURED]]
        for degree, literal in lift_cocycles(rng):
            # the `=` form, since a literal may start with a minus sign
            argvs.append(["lift", *FAMILY_Q1, "--degree", str(degree),
                          f"--cocycle={literal}", "-N", "7", *STRUCTURED])
        chibar = f"0,0,{_coeff(rng)}*a.b,0"
        argvs.append(["mc", *FAMILY_Q1, f"--cocycle={chibar}", *STRUCTURED])
        for left, right in ((1, 1), (1, 2)):
            argvs.append(["bracket", *FAMILY_Q1, "--engine", "bar",
                          "--left-degree", str(left), "--right-degree", str(right),
                          *STRUCTURED])
        return argvs
    raise ValueError(f"unknown workload {workload!r} (have: {', '.join(WORKLOADS)})")
