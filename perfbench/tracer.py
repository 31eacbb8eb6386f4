"""Span wrappers for the traced benchmark run.

The layers are the program's modules.  `install` wraps the public
functions and methods listed in SPANS from outside the program: a function
is rebound in every `koszulgerst` module that holds it (so names imported
with `from .linalg import solve_many` are traced too), a method is replaced
on its class.  Each call opens a span whose parent is the innermost open
span; a span's self time is its duration minus the time covered by its
child spans, and the wrapper's own cost is charged to neither, so it shows
only as the traced run's overhead.  Counts are taken at the same
boundaries by the hooks below.

Not wrapped, by design:

* `fields`: one field operation costs less than a wrapper; its share is
  read from the Q workloads against the F_p one instead.
* direct `_rref` calls in `koszul`, `cohomology` and `rewriting`: their
  elimination time counts as the calling span's self time until the
  program records its own spans.

Spans are aggregated in memory per name and per (parent, name) edge; the
benchmark resets the tracer before each pass and reads it after.
"""

import sys
import time

PACKAGE = "koszulgerst"
MARK = "_perfbench_span"


def _matrix_hook(rank_of):
    """Sum the Matrix argument's shape and nonzeros, and the rank if known."""
    def hook(tracer, args, result):
        A = args[0]
        tracer.add("linalg.rows", A.rows)
        tracer.add("linalg.cols", A.cols)
        tracer.add("linalg.nnz", len(A.entries))
        r = rank_of(A, result)
        if r is not None:
            tracer.add("linalg.rank", r)
    return hook


def _distinct_products(tracer, args, result):
    # keyed by the RewriteSystem object itself, which a product cache
    # would live on; the set keeps it alive, so keys never collide
    tracer.products.add(args)


def _comult_slice(tracer, args, result):
    table, n, _, r = args
    tracer.slices.add((table, n, r))


def _generators(tracer, args, result):
    tracer.add("koszul.generators", sum(len(level) for level in args[0].elements))


def _oracle_pairs(tracer, args, result):
    tracer.add("bracket.oracle_pairs", len(result.pairs))


# (module, function or Class.method, span name, hook)
SPANS = [
    ("cli", "main", "cli.main", None),
    ("cli", "emit", "cli.emit", None),
    ("algfile", "parse_presentation", "algfile.parse", None),
    ("algfile", "parse_cochain", "algfile.parse", None),
    ("rewriting", "build_rewrite_system", "rewriting.build", None),
    ("rewriting", "RewriteSystem.multiply", "rewriting.multiply", _distinct_products),
    ("rewriting", "RewriteSystem.normal_form", "rewriting.normal_form", None),
    ("koszul", "build_koszul_basis", "koszul.tower", None),
    ("koszul", "KoszulCobasis.__init__", "koszul.cobasis", _generators),
    ("koszul", "ComultTable.scalars", "koszul.scalars", _comult_slice),
    ("linalg", "solve_many", "linalg.solve_many", _matrix_hook(lambda A, res: None)),
    ("linalg", "solve_affine_system", "linalg.solve_affine",
     _matrix_hook(lambda A, res: None if res is None else A.cols - len(res.nullspace))),
    ("linalg", "nullspace_basis", "linalg.nullspace",
     _matrix_hook(lambda A, res: A.cols - len(res))),
    ("linalg", "rank", "linalg.rank", _matrix_hook(lambda A, res: res)),
    ("resolution", "KoszulComplex.__init__", "resolution.build", None),
    ("resolution", "KoszulComplex.verify_resolution", "resolution.verify", None),
    ("resolution", "KoszulComplex.differential", "resolution.differential", None),
    ("resolution", "KoszulComplex.sandwich", "resolution.sandwich", None),
    ("resolution", "KoszulComplex.bar_delta", "resolution.bar_delta", None),
    ("resolution", "KoszulComplex.iota", "resolution.iota", None),
    ("resolution", "KoszulComplex.iota_bimodule", "resolution.iota", None),
    ("cohomology", "cocycle_space", "cohomology.cocycle_space", None),
    ("cohomology", "is_coboundary", "cohomology.is_coboundary", None),
    ("cohomology", "cup_product", "cohomology.cup_product", None),
    ("lifting", "solve_lifting", "lifting.solve_lifting", None),
    ("lifting", "verify_lifting", "lifting.verify_lifting", None),
    ("lifting", "derivation_lift", "lifting.derivation_lift", None),
    ("bracket", "bar_cocycle_basis", "bracket.bar_cocycle_basis", None),
    ("bracket", "bar_circle_bracket", "bracket.bar_circle_bracket", None),
    ("bracket", "bracket_via_lifting", "bracket.bracket_via_lifting", None),
    ("bracket", "maurer_cartan_check", "bracket.maurer_cartan", None),
    ("bracket", "oracle_compare", "bracket.oracle_compare", _oracle_pairs),
]


class Tracer:
    """In-memory span aggregate: self time and calls per name and per edge."""

    def __init__(self):
        self.stack = []  # open spans as [name, ns covered by children]
        self.reset()

    def reset(self):
        self.self_ns = {}
        self.calls = {}
        self.edges = {}  # (parent name or None, name) -> calls
        self.counts = {}
        self.products = set()
        self.slices = set()

    def add(self, counter, amount):
        self.counts[counter] = self.counts.get(counter, 0) + amount

    def wrap(self, name, fn, hook=None):
        stack = self.stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            entered = clock()
            parent = stack[-1] if stack else None
            frame = [name, 0]
            stack.append(frame)
            returned = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                end = clock()
                stack.pop()
                self.self_ns[name] = self.self_ns.get(name, 0) + end - start - frame[1]
                self.calls[name] = self.calls.get(name, 0) + 1
                edge = (parent[0] if parent else None, name)
                self.edges[edge] = self.edges.get(edge, 0) + 1
                if returned and hook is not None:
                    hook(self, args, result)
                if parent is not None:
                    parent[1] += clock() - entered
            return result

        setattr(wrapper, MARK, name)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        return wrapper


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def install(tracer):
    """Wrap every entry of SPANS; the program must already be imported."""
    modules = _package_modules()
    for module, attr, name, hook in SPANS:
        mod = sys.modules[f"{PACKAGE}.{module}"]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, method, tracer.wrap(name, cls.__dict__[method], hook))
            continue
        original = getattr(mod, attr)
        wrapper = tracer.wrap(name, original, hook)
        for consumer in modules:
            for key, value in list(vars(consumer).items()):
                if value is original:
                    setattr(consumer, key, wrapper)


def installed():
    """Names of the package's functions and methods that carry a wrapper."""
    found = []
    for mod in _package_modules():
        for key, value in vars(mod).items():
            if getattr(value, MARK, None):
                found.append(f"{mod.__name__}.{key}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                found += [f"{mod.__name__}.{key}.{k}" for k, v in vars(value).items()
                          if getattr(v, MARK, None)]
    return found
