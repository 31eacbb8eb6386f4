"""Static rules over the package source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "koszulgerst"


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
