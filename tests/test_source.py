"""Checks on the package source itself."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "elps"


def test_no_bare_assert_in_the_package():
    """`python -O` strips `assert` statements, so the package raises its
    errors explicitly instead."""
    found = [
        f"{path.relative_to(SOURCE.parent.parent)}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, "bare assert statements: " + ", ".join(found)
