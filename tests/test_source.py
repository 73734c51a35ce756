"""Checks on the library source itself."""
import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).parent.parent / "src" / "toricsing")
                 .glob("*.py"))


def test_no_assert_guards_an_invariant():
    # asserts vanish under python -O; invariants raise AnomalyDetected
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert) or (
                    isinstance(node, ast.Name)
                    and node.id == "AssertionError"):
                found.append(f"{path.name}:{node.lineno}")
    assert SOURCES and not found, found
