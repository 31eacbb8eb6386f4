"""Static rules over the package source."""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "koszulgerst"


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so a contract check written as one
    # silently disappears; contract violations must raise KoszulGerstError
    found = []
    for module in sorted(SRC.glob("*.py")):
        tree = ast.parse(module.read_text(), filename=str(module))
        found += [f"{module.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert sorted(SRC.glob("*.py")), "package source not found"
    assert found == []


def _is_scale_call(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "scale")


def quadratic_accumulations(tree):
    """Lines of `x = x + <...>.scale(...)` or `x += <...>.scale(...)` in a loop."""
    found = set()
    for loop in ast.walk(tree):
        if not isinstance(loop, (ast.For, ast.While)):
            continue
        for node in ast.walk(loop):
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and isinstance(node.value, ast.BinOp)
                    and isinstance(node.value.op, ast.Add)
                    and isinstance(node.value.left, ast.Name)
                    and node.value.left.id == node.targets[0].id
                    and _is_scale_call(node.value.right)):
                found.add(node.lineno)
            elif (isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add)
                  and isinstance(node.target, ast.Name) and _is_scale_call(node.value)):
                found.add(node.lineno)
    return sorted(found)


def test_rule_spots_quadratic_accumulation():
    tree = ast.parse("acc = zero\n"
                     "for x, c in pairs:\n"
                     "    acc = acc + x.scale(c)\n"
                     "    other += x.scale(c)\n"
                     "    acc = acc + x\n"
                     "total = total + x.scale(c)\n")
    assert quadratic_accumulations(tree) == [3, 4]


def test_no_quadratic_accumulation_in_the_package():
    # each `acc = acc + x.scale(c)` copies the whole accumulated dict and
    # builds a throwaway vector per term; loops accumulate into a plain dict
    # with native + and * and hand it to the canonicalizing constructor instead
    found = []
    for module in sorted(SRC.glob("*.py")):
        tree = ast.parse(module.read_text(), filename=str(module))
        found += [f"{module.name}:{line}" for line in quadratic_accumulations(tree)]
    assert sorted(SRC.glob("*.py")), "package source not found"
    assert found == []


def subtracted_scales(tree):
    """Lines of `<x> - <...>.scale(...)` or `<x> -= <...>.scale(...)`."""
    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
                   and _is_scale_call(node.right)
                   or isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Sub)
                   and _is_scale_call(node.value)})


def test_rule_spots_subtracted_scales():
    tree = ast.parse("d = a - b.scale(c)\n"
                     "d -= b.scale(c)\n"
                     "d = a + b.scale(c)\n"
                     "d = a.scale(c) - b\n"
                     "d = a - b\n"
                     "values.append(first - second.scale(sign))\n")
    assert subtracted_scales(tree) == [1, 2, 6]


def test_no_scaled_vector_is_subtracted_in_the_package():
    # a - b.scale(c) builds a throwaway vector and then a second one; both
    # sides go into one term dict with their signs, or a - b subtracts in
    # one pass
    found = []
    for module in sorted(SRC.glob("*.py")):
        tree = ast.parse(module.read_text(), filename=str(module))
        found += [f"{module.name}:{line}" for line in subtracted_scales(tree)]
    assert sorted(SRC.glob("*.py")), "package source not found"
    assert found == []


def eager_accumulations(tree):
    """Lines of `d[k] = <x>.add(d.get(...), ...)` or `<x>.sub(d.get(...), ...)`,
    also through a name bound to an `.add` or `.sub` attribute, as in
    `add = f.add` or `add, mul = f.add, f.mul`."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = ([(target, node.value)] if isinstance(target, ast.Name) else
                         zip(target.elts, node.value.elts)
                         if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
                         else ())
                aliases |= {name.id for name, value in pairs
                            if isinstance(name, ast.Name) and isinstance(value, ast.Attribute)
                            and value.attr in ("add", "sub")}

    def is_eager(call):
        func = call.func
        return (isinstance(func, ast.Attribute) and func.attr in ("add", "sub")
                or isinstance(func, ast.Name) and func.id in aliases)

    found = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Subscript)
                and isinstance(node.value, ast.Call) and is_eager(node.value)
                and node.value.args and isinstance(node.value.args[0], ast.Call)
                and getattr(node.value.args[0].func, "attr", None) == "get"):
            found.add(node.lineno)
    return sorted(found)


def test_rule_spots_eager_accumulation():
    tree = ast.parse("acc[k] = f.add(acc.get(k, f.zero), f.mul(a, b))\n"
                     "add, mul = field.add, field.mul\n"
                     "plus = f.add\n"
                     "out[k] = add(out.get(k, zero), mul(a, b))\n"
                     "res[p] = field.sub(res.get(p, zero), c)\n"
                     "out[k] = plus(out.get(k, 0), c)\n"
                     "seen.add(name)\n"
                     "acc[k] = acc.get(k, 0) + a * b\n"
                     "x = f.add(acc.get(k, 0), c)\n"
                     "acc[k] = mul(acc.get(k, 0), c)\n"
                     "row[c] = field.mul(row[c], inv)\n")
    assert eager_accumulations(tree) == [1, 4, 5, 6]


def test_accumulations_are_native_and_reduced_once():
    # d[k] = d.get(k, 0) + a * b with native operators costs about a third
    # of the field-call form; the constructors' field.canon reduces once
    found = []
    for module in sorted(SRC.glob("*.py")):
        tree = ast.parse(module.read_text(), filename=str(module))
        found += [f"{module.name}:{line}" for line in eager_accumulations(tree)]
    assert sorted(SRC.glob("*.py")), "package source not found"
    assert found == []


def references(tree, names):
    """(name, qualified scope) for each `<name>` or `<x>.<name>` read in a
    function, called or not, so that an alias `product = x.word_product`
    counts too ("" at module level)."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            name = (child.id if isinstance(child, ast.Name)
                    else child.attr if isinstance(child, ast.Attribute) else None)
            if name in names:
                found.add((name, scope))
            visit(child, scope)

    visit(tree, "")
    return sorted(found)


def test_rule_spots_rref_callers():
    tree = ast.parse("x = _rref(rows, 2, f)\n"
                     "class A:\n"
                     "    def m(self):\n"
                     "        def inner():\n"
                     "            return linalg._rref(rows, 1, f)\n"
                     "        return inner\n"
                     "def g():\n"
                     "    return rref(rows)\n"
                     "def h():\n"
                     "    reduce = linalg._rref\n"
                     "    return reduce(rows, 0, f)\n")
    assert references(tree, ("_rref",)) == [("_rref", ""), ("_rref", "A.m.inner"), ("_rref", "h")]


def test_rref_and_nullspace_from_rref_are_called_only_inside_linalg():
    # every elimination is linalg's: a span's reduced echelon basis is
    # echelon_basis, and a map solved for many right-hand sides (the lifting
    # systems, the coboundary slices) is an Elimination
    found = []
    for module in sorted(SRC.glob("*.py")):
        if module.name == "linalg.py":
            continue
        tree = ast.parse(module.read_text(), filename=str(module))
        found += [(module.name, scope)
                  for _, scope in references(tree, ("_rref", "_nullspace_from_rref"))]
    assert sorted(SRC.glob("*.py")), "package source not found"
    assert found == []
    # the generators and their scalars are read off A^!'s normal words and
    # products: koszul solves no linear system
    tree = ast.parse((SRC / "koszul.py").read_text(), filename="koszul.py")
    assert named_calls(tree, "_rref") == named_calls(tree, "nullspace_basis") == []


def basis_words_end_filters(tree):
    """Lines of a loop or comprehension over a basis_words level (the call
    itself, or a name bound to one) that compares its word's ends,
    `path_target(w)` or `w.o`, in the comprehension's ifs or in an if
    directly in the loop body."""
    def is_basis_words(node):
        return isinstance(node, ast.Call) and "basis_words" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None))

    levels = {node.targets[0].id if isinstance(node, ast.Assign) else node.target.id
              for node in ast.walk(tree)
              if isinstance(node, (ast.Assign, ast.NamedExpr)) and is_basis_words(node.value)
              and isinstance(node.targets[0] if isinstance(node, ast.Assign) else node.target,
                             ast.Name)}

    def is_level(node):
        return is_basis_words(node) or isinstance(node, ast.Name) and node.id in levels

    def is_end(node, name):
        if isinstance(node, ast.Attribute):
            return node.attr == "o" and isinstance(node.value, ast.Name) and node.value.id == name
        return (isinstance(node, ast.Call) and "path_target" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None))
                and any(isinstance(arg, ast.Name) and arg.id == name for arg in node.args))

    def compares_ends(test, name):
        return any(is_end(side, name) for node in ast.walk(test) if isinstance(node, ast.Compare)
                   for side in (node.left, *node.comparators))

    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            found.update(node.lineno for gen in node.generators
                         if is_level(gen.iter) and isinstance(gen.target, ast.Name)
                         and any(compares_ends(test, gen.target.id) for test in gen.ifs))
        elif (isinstance(node, ast.For) and is_level(node.iter)
              and isinstance(node.target, ast.Name)
              and any(isinstance(stmt, ast.If) and compares_ends(stmt.test, node.target.id)
                      for stmt in node.body)):
            found.add(node.lineno)
    return sorted(found)


def test_rule_spots_basis_words_end_filters():
    tree = ast.parse("a = [w for w in rs.basis_words(2) if q.path_target(w) == t]\n"
                     "level = rs.basis_words(1)\n"
                     "b = {w for w in level if w.o == o}\n"
                     "for w in basis_words(3):\n"
                     "    if t != path_target(w):\n"
                     "        continue\n"
                     "while words := rs.basis_words(4):\n"
                     "    c = [w for w in words if w.o != o and w]\n"
                     "d = [w for w in rs.basis_words(2, o, t) if w.arrows]\n"
                     "e = [p for p in val.terms if p.o == o]\n"
                     "f = [w for w in level if v.o == o]\n")
    # d filters by no end, e iterates no level, f compares another word's end
    assert basis_words_end_filters(tree) == [1, 3, 4, 8]


def test_only_rewriting_filters_basis_words_by_their_ends():
    # the words between two vertices are read off the index that the
    # rewrite system builds as each level grows: basis_words(length, o, t)
    found = []
    for module in sorted(SRC.glob("*.py")):
        if module.name == "rewriting.py":
            continue
        tree = ast.parse(module.read_text(), filename=str(module))
        found += [f"{module.name}:{line}" for line in basis_words_end_filters(tree)]
    assert sorted(SRC.glob("*.py")), "package source not found"
    assert found == []


def test_rule_spots_checked_cochain_constructions():
    tree = ast.parse("def parse_cochain(kx, degree, text):\n"
                     "    return Cochain.from_values(kx, degree, parse(text))\n"
                     "class Cochain:\n"
                     "    def from_values(cls, kx, degree, values):\n"
                     "        return [kx.rs.normal_form(v) for v in values]\n"
                     "    def graded_piece(self, ell):\n"
                     "        return normal_form(self)\n"
                     "def bracket(kx, values):\n"
                     "    return Cochain(kx, 2, values)\n"
                     "def cochain(kx, degree, values):\n"
                     "    build = Cochain.from_values\n"
                     "    return build(kx, degree, values)\n")
    assert references(tree, ("from_values",)) == [
        ("from_values", "cochain"), ("from_values", "parse_cochain")]
    assert references(tree, ("normal_form",)) == [
        ("normal_form", "Cochain.from_values"), ("normal_form", "Cochain.graded_piece")]


def test_only_input_entry_points_check_cochain_values():
    # Cochain(kx, n, terms) trusts terms the package computed; values are put
    # in normal form and pin-checked only where they enter, and they enter
    # only as cochain literals, which algfile.parse_cochain reads for the
    # command line and the presets' goldens alike; so no computed cochain
    # pays for a second normalisation
    found = []
    for module in sorted(SRC.glob("*.py")):
        tree = ast.parse(module.read_text(), filename=str(module))
        found += [(module.name, scope) for _, scope in references(tree, ("from_values",))]
    assert sorted(SRC.glob("*.py")), "package source not found"
    assert found == [("algfile.py", "parse_cochain")]
    tree = ast.parse((SRC / "cohomology.py").read_text(), filename="cohomology.py")
    assert references(tree, ("normal_form",)) == [("normal_form", "Cochain.from_values")]


def test_presets_are_parsed_not_built():
    # the presets are algebra files and their goldens cochain literals, read
    # by algfile; presets builds no quiver, path or presentation by hand
    tree = ast.parse((SRC / "presets.py").read_text(), filename="presets.py")
    assert references(tree, ("Path", "PathVector", "Quiver", "QuadraticPresentation")) == []
    assert ("parse_presentation", "load_presentation") in references(
        tree, ("parse_presentation",))


def named_calls(tree, callee):
    """Lines of `<callee>(...)` or `<module>.<callee>(...)` calls."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == callee:
                found.add(node.lineno)
    return sorted(found)


def test_rule_spots_fraction_calls():
    tree = ast.parse("from fractions import Fraction\n"
                     "x = Fraction(1)\n"
                     "y = fractions.Fraction(2, 3)\n"
                     "isinstance(x, Fraction)\n"
                     "z = field(Fraction)\n"
                     "def f():\n"
                     "    return [Fraction(t) for t in ts]\n")
    assert named_calls(tree, "Fraction") == [2, 3, 7]


def test_fraction_is_called_only_in_fields():
    # fields.Rationals hands out integral values as ints (its _norm); a
    # Fraction made anywhere else could carry denominator 1 past that
    found = []
    for module in sorted(SRC.glob("*.py")):
        if module.name == "fields.py":
            continue
        tree = ast.parse(module.read_text(), filename=str(module))
        found += [f"{module.name}:{line}" for line in named_calls(tree, "Fraction")]
    assert sorted(SRC.glob("*.py")), "package source not found"
    assert found == []


def test_rule_spots_path_calls():
    tree = ast.parse("from .quiver import Path\n"
                     "head = Path(w.o, w.arrows[:r])\n"
                     "key = (w.o, w.arrows[:r])\n"
                     "isinstance(k, Path)\n"
                     "tail = quiver.Path(t, w.arrows[r:])\n"
                     "e = q.vertex_path(v)\n")
    assert named_calls(tree, "Path") == [2, 5]


def test_no_path_is_built_in_koszul_or_resolution():
    # the spelled generators, the scalar slices and the resolution's identity
    # checks run per word; the generators are spelled as int codes, which
    # Quiver.decode turns back into Paths, the resolution takes shared
    # letters from Quiver.vertex_path / arrow_path, and the delta iota =
    # iota d check keys words by int codes
    found = []
    for name in ("koszul.py", "resolution.py"):
        tree = ast.parse((SRC / name).read_text(), filename=name)
        found += [f"{name}:{line}" for line in named_calls(tree, "Path")]
    assert found == []


def test_cobasis_spells_codes_without_building_words():
    # KoszulCobasis spells each word of f^n straight into its int code, x * A
    # + a for the word x followed by the arrow a; the Paths of f and the
    # letters of iota are decoded from those codes by Quiver.decode
    tree = ast.parse((SRC / "koszul.py").read_text(), filename="koszul.py")
    found = references(tree, ("compose", "code"))
    assert ("compose", "build_koszul_basis") in found  # the rule sees koszul's compose calls
    assert [pair for pair in found if pair[1].split(".")[0] == "KoszulCobasis"] == []


def test_rule_spots_normal_forms_in_cobasis_methods():
    tree = ast.parse("class KoszulCobasis:\n"
                     "    def right_action(self, m):\n"
                     "        product = self.dual.word_product\n"
                     "        def act(j, a):\n"
                     "            return nf_path(u)\n"
                     "        return act\n"
                     "    def f(self, n, i):\n"
                     "        return self.dual.normal_form(v)\n"
                     "def build_koszul_basis(q):\n"
                     "    return q.compose(u, v)\n")
    assert references(tree, ("word_product", "nf_path", "normal_form", "compose")) == [
        ("compose", "build_koszul_basis"), ("nf_path", "KoszulCobasis.right_action.act"),
        ("normal_form", "KoszulCobasis.f"), ("word_product", "KoszulCobasis.right_action")]


def test_cobasis_puts_no_word_of_the_dual_in_normal_form():
    # KoszulCobasis.right_action takes the action of the arrows on A^! from
    # A^!'s RewriteSystem.times on word indices, so after the build no
    # method multiplies, reduces or joins a word of A^!
    tree = ast.parse((SRC / "koszul.py").read_text(), filename="koszul.py")
    found = references(tree, ("word_product", "nf_path", "normal_form", "compose"))
    assert ("compose", "build_koszul_basis") in found  # the rule sees koszul's calls
    assert [pair for pair in found if pair[1].split(".")[0] == "KoszulCobasis"] == []


def rules_reads(tree):
    """(scope, line, indexed) of each `rules` or `<x>.rules` read, scope being
    the qualified name of the enclosing function or class; indexed when the
    read is subscripted, as rules[(b, a)] looks a rule up by its arrow pair."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if (isinstance(child, ast.Name) and child.id == "rules"
                    or isinstance(child, ast.Attribute) and child.attr == "rules"):
                found.append((scope, child.lineno,
                              isinstance(node, ast.Subscript) and node.value is child))
            visit(child, scope)

    visit(tree, "")
    return sorted(found)


def test_rule_spots_rules_reads():
    # the shape of the right action before the cobasis took it from the
    # dual's RewriteSystem.times: its own copy of the rule recursion
    tree = ast.parse("class KoszulCobasis:\n"
                     "    def right_action(self, m):\n"
                     "        tails = {rule: tail for rule, tail in self.dual.rules.items()}\n"
                     "        def act(j, b, a):\n"
                     "            return [act(k, x, y) for x, y in rules[(b, a)]]\n"
                     "class ComultTable:\n"
                     "    def _slice(self, b, a):\n"
                     "        return (b, a) in self.cobasis.dual.rules\n"
                     "def build_koszul_basis(rs):\n"
                     "    return [rs.rules[rule] for rule in rs.rules]\n"
                     "rules = None\n")
    assert rules_reads(tree) == [
        ("", 11, False), ("ComultTable._slice", 8, False),
        ("KoszulCobasis.right_action", 3, False), ("KoszulCobasis.right_action.act", 5, True),
        ("build_koszul_basis", 10, False), ("build_koszul_basis", 10, True)]


# reads of a rewrite system's rules outside rewriting.py, each with why it stays
RULES_READS_ALLOWED = {
    ("koszul.py", "build_koszul_basis"): "forms R^perp, the relations of A^!, from A's rules",
}


def test_only_rewriting_applies_rules():
    # one recursion, RewriteSystem.times, applies a rule's tail to a word, in
    # A and in A^!; no other module looks a rule up by its arrow pair, and
    # KoszulCobasis and ComultTable, which take A^!'s products from times,
    # read no rules at all
    reads, indexed = set(), []
    for module in sorted(SRC.glob("*.py")):
        if module.name == "rewriting.py":
            continue
        tree = ast.parse(module.read_text(), filename=str(module))
        for scope, line, is_indexed in rules_reads(tree):
            reads.add((module.name, scope))
            if is_indexed:
                indexed.append(f"{module.name}:{line}")
    assert sorted(SRC.glob("*.py")), "package source not found"
    assert indexed == []
    assert [read for read in reads
            if read[1].split(".")[0] in ("KoszulCobasis", "ComultTable")] == []
    assert reads == RULES_READS_ALLOWED.keys()


def word_tuple_building(tree):
    """(scope, line) of each `<x>.arrows[...]` and `<x>.arrows + <y>.arrows`,
    scope being the qualified name of the enclosing function or class."""
    found = []

    def is_arrows(node):
        return isinstance(node, ast.Attribute) and node.attr == "arrows"

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if ((isinstance(child, ast.Subscript) and is_arrows(child.value))
                    or (isinstance(child, ast.BinOp) and isinstance(child.op, ast.Add)
                        and is_arrows(child.left) and is_arrows(child.right))):
                found.append((scope, child.lineno))
            visit(child, scope)

    visit(tree, "")
    return sorted(found)


# the identity checks of KoszulComplex that key their terms by ints, all five
# through _check_sides: d*d=0 and the dg identity (int letters, _letter_view),
# coassociativity and the counit laws (generator indices) and delta iota =
# iota d (Quiver.code); all but the counit laws pack each term's key fields
# into one int by mixed radix, and decode unpacks a failing term's key
INT_KEYED_CHECKS = {f"KoszulComplex.{name}" for name in (
    "_letter_view", "_check_d_squared", "_check_sides", "_check_dg_compat",
    "_check_coassoc", "_check_counit", "_check_iota")}


def code_keyed(scope):
    """Whether scope is in one of the per-word loops that build no word
    tuples: any ComultTable method, which composes slices by word index,
    or one of the INT_KEYED_CHECKS."""
    parts = scope.split(".")
    return parts[0] == "ComultTable" or ".".join(parts[:2]) in INT_KEYED_CHECKS


def test_rule_spots_word_tuple_building():
    tree = ast.parse("class ComultTable:\n"
                     "    def _slice(self, w, r):\n"
                     "        head = w.arrows[:r]\n"
                     "        key = (w.o, w.arrows)\n"
                     "        def inner(u, v):\n"
                     "            return u.arrows + v.arrows\n"
                     "        return len(w.arrows) + r\n"
                     "def spell(w):\n"
                     "    return w.arrows[0]\n")
    assert word_tuple_building(tree) == [
        ("ComultTable._slice", 3), ("ComultTable._slice.inner", 6), ("spell", 9)]
    assert [code_keyed(scope) for scope in (
        "ComultTable._slice.inner", "spell", "KoszulComplex._check_iota", "KoszulComplex.iota",
        "KoszulComplex._check_d_squared", "KoszulComplex._check_dg_compat.sides",
        "KoszulComplex._check_coassoc", "KoszulComplex.differential")] == [
        True, False, True, False, True, True, True, False]
    # the Path-word comult table kept as a test reference builds tuples 3 times
    tree = ast.parse((ROOT / "tests" / "test_koszul.py").read_text())
    assert len([scope for scope, _ in word_tuple_building(tree)
                if scope.startswith("ReferenceComultTable.")]) == 3


def test_comult_table_and_iota_check_build_no_word_tuples():
    # a slice composes the slice below it with the right action of the
    # arrows on A^!, which KoszulCobasis.right_action takes from A^!'s
    # RewriteSystem.times, both keyed by word indices; d*d=0, the dg identity and coassociativity
    # key their terms by int letters and indices, and the delta iota = iota d
    # check touches every word of f^0..f^N as an int code; only the witness
    # path of a failing generator spells Paths
    found = []
    for name in ("koszul.py", "resolution.py"):
        tree = ast.parse((SRC / name).read_text(), filename=name)
        found += [f"{name}:{scope}:{line}" for scope, line in word_tuple_building(tree)
                  if code_keyed(scope)]
    assert found == []
    # a name in INT_KEYED_CHECKS that resolution.py does not define exempts nothing
    functions, _ = definitions({"resolution": (SRC / "resolution.py").read_text()})
    assert sorted(INT_KEYED_CHECKS - {name for _, name in functions}) == []


def indented_json_dumps(tree):
    """Lines of `dump(...)` or `dumps(...)` calls, bare or on a module, given an indent."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("dump", "dumps") and any(kw.arg == "indent" for kw in node.keywords):
                found.add(node.lineno)
    return sorted(found)


def test_rule_spots_indented_json_dumps():
    tree = ast.parse("import json\n"
                     "a = json.dumps(doc, indent=2)\n"
                     "b = json.dumps(doc)\n"
                     "json.dump(doc, fh, indent=4)\n"
                     "c = dumps(doc)\n"
                     "d = structured.dumps(doc, indent=None)\n")
    assert indented_json_dumps(tree) == [2, 4, 6]


def test_no_indented_json_dumps_in_the_package():
    # json.dumps with an indent runs the pure-Python encoder; structured
    # output goes through structured.dumps, which writes the same bytes
    found = []
    for module in sorted(SRC.glob("*.py")):
        tree = ast.parse(module.read_text(), filename=str(module))
        found += [f"{module.name}:{line}" for line in indented_json_dumps(tree)]
    assert sorted(SRC.glob("*.py")), "package source not found"
    assert found == []


def json_layouts(tree):
    """Lines of `Encoded(...)` calls, bare or on a module, and of strings other
    than docstrings that hold a newline followed by a space: JSON indentation."""
    docstrings = {id(node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)}
    return sorted(set(named_calls(tree, "Encoded")) | {
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and "\n " in node.value and id(node) not in docstrings})


def test_rule_spots_json_layouts():
    tree = ast.parse('def f(doc):\n'
                     '    """A docstring\n    over two lines."""\n'
                     '    a = structured.Encoded(text)\n'
                     '    b = Encoded("[]")\n'
                     '    c = ",\\n  ".join(items)\n'
                     '    d = f"{{\\n    {key}"\n'
                     '    e = "\\n".join(lines)\n'
                     '    return str(text)\n')
    assert json_layouts(tree) == [4, 5, 6, 7]


def test_only_structured_writes_json_layout():
    # the indents, separators and quoting of a structured document are known
    # to structured.py alone: other modules hand it values, or runs built by
    # structured.letter, and build no Encoded and no indented text
    found = []
    for module in sorted(SRC.glob("*.py")):
        if module.name == "structured.py":
            continue
        tree = ast.parse(module.read_text(), filename=str(module))
        found += [f"{module.name}:{line}" for line in json_layouts(tree)]
    assert sorted(SRC.glob("*.py")), "package source not found"
    assert found == []
    tree = ast.parse((SRC / "structured.py").read_text(), filename="structured.py")
    assert json_layouts(tree)  # the rule sees structured.py's own layout


def loops_over_built_terms(tree, builders=("sandwich", "differential")):
    """Lines of loops (or comprehensions) whose iterable reads `<builder>(...).terms`."""
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.For, ast.comprehension)):
            continue
        for sub in ast.walk(node.iter):
            if (isinstance(sub, ast.Attribute) and sub.attr == "terms"
                    and isinstance(sub.value, ast.Call)):
                func = sub.value.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in builders:
                    found.add(sub.lineno)
    return sorted(found)


def test_rule_spots_loops_over_built_terms():
    tree = ast.parse("for key, c in kx.sandwich(u, x, v).terms.items():\n"
                     "    pass\n"
                     "for key in differential(x).terms:\n"
                     "    pass\n"
                     "d = kx.differential(x)\n"
                     "for key, c in kx._diff_eps(n, i).terms.items():\n"
                     "    kx.sandwich_into(out, u, x.terms, v, c)\n"
                     "keys = [k for k in kx.differential(y).terms]\n")
    assert loops_over_built_terms(tree) == [1, 3, 8]


def test_bimodule_loops_go_through_the_kernel():
    # a loop over a built element's terms copies what sandwich_into would
    # have added in place; d and psi add into the caller's dict instead
    found = []
    for name in ("resolution.py", "lifting.py"):
        tree = ast.parse((SRC / name).read_text(), filename=name)
        found += [f"{name}:{line}" for line in loops_over_built_terms(tree)]
    assert found == []


SPAN_CHECK = """
import sys
import koszulgerst.cli
sys.path.insert(0, sys.argv[1])
import tracer
missing = []
for module, attr, _, _ in tracer.SPANS:
    owner = sys.modules.get(tracer.PACKAGE + "." + module)
    *cls, name = attr.split(".")
    if cls:
        owner = getattr(owner, cls[0], None)
    if owner is None or name not in vars(owner):
        missing.append(module + "." + attr)
print(missing)
tracer.install(tracer.Tracer())
"""


def test_every_traced_span_resolves_on_the_imported_package():
    # the benchmark's tracer looks each SPANS entry up by name after importing
    # koszulgerst.cli; a renamed, deleted or lazily imported name would show
    # only in a traced run, so check in a fresh interpreter, as it imports
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SPAN_CHECK, str(ROOT / "perfbench")],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def package_sources(package_dir=SRC):
    return {module.stem: module.read_text() for module in sorted(package_dir.glob("*.py"))}


def traced_spans():
    """(module, function or Class.method) of each SPANS entry of the benchmark's tracer."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {(module, attr) for module, attr, _, _ in tracer.SPANS}


def definitions(sources):
    """(module, qualified name) of each function and method defined in
    sources ({module: text}), and (module, qualified name, parameter) of each
    of their defaulted parameters; a name is qualified as its code object's
    co_qualname, `outer.<locals>.inner` for a nested function."""
    functions, defaulted = [], []
    for module, text in sources.items():

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                if not isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                    visit(child, scope)
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{scope}{child.name}.")
                else:
                    qualified, args = scope + child.name, child.args
                    functions.append((module, qualified))
                    positional = args.posonlyargs + args.args
                    defaulted.extend((module, qualified, arg.arg) for arg in
                                     positional[len(positional) - len(args.defaults):])
                    defaulted.extend((module, qualified, arg.arg) for arg, default
                                     in zip(args.kwonlyargs, args.kw_defaults) if default)
                    visit(child, qualified + ".<locals>.")

        visit(ast.parse(text), "")
    return functions, defaulted


def unnamed_classes(sources):
    """(module, class) of each class defined in sources whose name no line of
    sources reads, as a name or an attribute."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    names = {getattr(node, "id", None) or getattr(node, "attr", None)
             for tree in trees.values() for node in ast.walk(tree)}
    return sorted((module, node.name) for module, tree in trees.items()
                  for node in ast.walk(tree)
                  if isinstance(node, ast.ClassDef) and node.name not in names)


# argv: the package directory, the code to run and the JSON list of the
# (module, qualified name) of functions with defaults; prints what ran, as JSON
PROFILED_RUN = """
import gc, json, sys, types
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

package_dir, driver = sys.argv[1], sys.argv[2]
with_defaults = set(map(tuple, json.loads(sys.argv[3])))
seen, ran, pending, set_params = set(), set(), {}, set()

def defaults(code):
    # {parameter: default} of the function whose code this is
    function = next(f for f in gc.get_referrers(code) if isinstance(f, types.FunctionType))
    names, values = code.co_varnames[:code.co_argcount], function.__defaults__ or ()
    return {**dict(zip(names[len(names) - len(values):], values)),
            **(function.__kwdefaults__ or {})}

def profile(frame, event, arg):
    if event != "call":
        return
    code = frame.f_code
    if code not in seen:
        seen.add(code)
        if not code.co_filename.startswith(package_dir) or code.co_name.startswith("<"):
            return
        function = (Path(code.co_filename).stem, code.co_qualname)
        ran.add(function)
        if function in with_defaults:
            pending[code] = function, defaults(code)
    function, unset = pending.get(code, (None, None))
    if unset and frame.f_back.f_code.co_filename.startswith(package_dir):
        values = frame.f_locals
        for name in [name for name, default in unset.items() if values[name] is not default]:
            del unset[name]
            set_params.add((*function, name))

sys.setprofile(profile)
with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
    exec(driver, {})
sys.setprofile(None)
print(json.dumps([sorted(ran), sorted(set_params)]))
"""


def profiled_run(package_dir, driver):
    """What running driver (Python source) in a fresh interpreter executes
    of the package at package_dir, traced by sys.setprofile: the set of
    (module, qualified name) of each function that ran, and the set of
    (module, qualified name, parameter) of each defaulted parameter that a
    call from inside the package gave a value that is not its default."""
    defaulted = {(module, name) for module, name, _ in
                 definitions(package_sources(package_dir))[1]}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(package_dir.parent),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PROFILED_RUN, f"{package_dir}{os.sep}", driver,
                           json.dumps(sorted(defaulted))],
                          capture_output=True, text=True, env=env, timeout=300)
    assert (proc.returncode, proc.stderr) == (0, "")
    return tuple({tuple(entry) for entry in found} for found in json.loads(proc.stdout))


# every command that the structured digests pin, in text and in structured
# format; then verify_resolution once on a complex with one seeded fault, the
# doubled c(3, 1, 1) of `short` that breaks delta iota = iota d (and d*d=0, the
# dg identity and coassociativity), since a check decodes a witness key only
# for a failing generator and no pinned command fails
COMMANDS_RUN = f"""
import sys, tempfile
sys.path.insert(0, {str(ROOT / "tests")!r})
from identity_reference import double_scalar
from koszulgerst.fields import QQ
from koszulgerst.presets import load_complex
from test_structured_digests import COMMANDS, main, with_files
with tempfile.TemporaryDirectory() as tmp:
    for argv in COMMANDS:
        for fmt in ("text", "structured"):
            main([*with_files(argv, tmp), "--format", fmt])
kx = load_complex("short", QQ, 3)
double_scalar(kx, 3, 1, 1)
assert "delta iota = iota d" in {{f[0] for f in kx.verify_resolution().failures}}
"""


@pytest.fixture(scope="module")
def commands_run():
    return profiled_run(SRC, COMMANDS_RUN)


def test_run_spots_unrun_methods_and_unset_defaults(tmp_path):
    # Lifting.apply never runs while Operator.apply does, and a.solve's
    # initial is never set while b.solve's is: a match by bare name misses both
    package = tmp_path / "spot"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "a.py").write_text("class Lifting:\n"
                                  "    def apply(self, x): return x\n"
                                  "class Operator:\n"
                                  "    def apply(self, x, scale=1): return x * scale\n"
                                  "def solve(x, initial=None):\n"
                                  "    def inner(y=0): return y\n"
                                  "    return inner(1)\n")
    (package / "b.py").write_text("from .a import Operator, solve as solve_a\n"
                                  "def solve(x, initial=None): return x\n"
                                  "def main(verbose=False):\n"
                                  "    solve_a(Operator().apply(2, scale=3))\n"
                                  "    return solve(1, initial=2)\n")
    ran, set_params = profiled_run(package, "from spot.b import main\nmain(verbose=True)\n")
    functions, defaulted = definitions(package_sources(package))
    assert [f for f in functions if f not in ran] == [("a", "Lifting.apply")]
    # main's verbose is set, but only from outside the package
    assert [p for p in defaulted if p not in set_params] == [
        ("a", "solve", "initial"), ("b", "main", "verbose")]


# functions and methods that no command runs, each with why it stays
NOT_RUN_ALLOWED = {
    ("linalg", "_solve_all"): "the one elimination of the traced dense spans "
                              "solve_affine_system and solve_many",
    ("linalg", "GradedVector._like"): "+, - and scale of bar cochains and BimoduleElements, "
                                      "which only the tests' reference arithmetic does; "
                                      "Cochain has its own _like",
}


def test_every_definition_runs_or_is_traced_or_allowed(commands_run):
    # a function that no command runs is dead or test-only API; it stays only
    # as a benchmark span or with a stated reason, and an allowlist entry
    # goes once a command runs it; a class must at least be named
    ran, _ = commands_run
    not_run = {f for f in definitions(package_sources())[0] if f not in ran}
    assert sorted(not_run - traced_spans() - NOT_RUN_ALLOWED.keys()) == []
    assert sorted(NOT_RUN_ALLOWED.keys() - not_run) == []
    assert unnamed_classes(package_sources()) == []


# defaulted parameters that no call in src/ sets, each with why it stays
UNSET_DEFAULTS_ALLOWED = {
    ("cli", "main", "argv"): "entry point: the console script calls main() to read "
                             "sys.argv; tests and the benchmark pass their own argv",
}


def test_every_defaulted_parameter_is_set_or_allowed(commands_run):
    # a default that no caller in the package overrides is an option with
    # one value in use: the value belongs in the body, and the parameter
    # goes; an allowlist entry goes once the package sets the parameter
    _, set_params = commands_run
    unset = {p for p in definitions(package_sources())[1] if p not in set_params}
    assert sorted(unset - UNSET_DEFAULTS_ALLOWED.keys()) == []
    assert sorted(UNSET_DEFAULTS_ALLOWED.keys() - unset) == []
