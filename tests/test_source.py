"""Checks on the package source itself."""

import ast
import dataclasses
import importlib
import re
import sys
from pathlib import Path

from elps import config

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


def test_the_package_imports_only_the_standard_library():
    """The runtime needs nothing but Python: every absolute import names a
    standard-library module or the package itself."""
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names | {"elps"}
            ]
    assert not found, "imports outside the standard library: " + ", ".join(found)


def test_the_package_parses_as_python_3_10():
    """`requires-python = ">=3.10"`: no module uses syntax newer than 3.10."""
    for path in sorted(SOURCE.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_the_config_docstring_names_each_cap_where_it_is_used():
    """`config` names the one settable cap, `SolverLimits.max_atoms`, and
    each constant cap as `module.NAME` (value, use); every named constant
    exists in its module with that value."""
    caps = re.findall(r"`(\w+)\.([A-Z0-9_]+)` \((\d+)", config.__doc__)
    assert len(caps) == 6
    for module, name, value in caps:
        assert getattr(importlib.import_module(f"elps.{module}"), name) == int(value), (module, name)
    assert [f.name for f in dataclasses.fields(config.SolverLimits)] == ["max_atoms"]
    settable = re.search(r"`SolverLimits\.max_atoms` \((\d+)", config.__doc__)
    assert int(settable.group(1)) == config.DEFAULT_LIMITS.max_atoms
