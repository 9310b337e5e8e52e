"""Checks on the package source itself."""

import ast
import importlib
import inspect
import re
import shlex
import sys
from pathlib import Path

import pytest

import elps
from elps import cli

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "elps"
README = (ROOT / "README.md").read_text(encoding="utf-8")


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


def _root_names_used_outside_the_package() -> set:
    """Each name that `perfbench/` or `tests/` reads off the package root,
    as `elps.<name>` or `from elps import <name>`, that is not a submodule."""
    found = set()
    for path in sorted([*ROOT.glob("perfbench/**/*.py"), *ROOT.glob("tests/*.py")]):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "elps":
                found.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module == "elps" and not node.level:
                found.update(alias.name for alias in node.names)
    submodules = {path.stem for path in SOURCE.glob("*.py")}
    return {name for name in found if name not in submodules and not name.startswith("__")}


def test_the_package_root_exports_exactly_what_its_callers_use():
    """`elps.__all__` is a literal list of the names code outside the package
    reads off the root, and the root binds no other public name but its
    submodules: a new export needs a caller, and a new caller an export."""
    tree = ast.parse((SOURCE / "__init__.py").read_text(encoding="utf-8"))
    [value] = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["__all__"]
    ]
    assert isinstance(value, ast.List) and ast.literal_eval(value) == elps.__all__
    assert set(elps.__all__) == _root_names_used_outside_the_package()
    public = {name for name, obj in vars(elps).items() if not name.startswith("_") and not inspect.ismodule(obj)}
    assert public == set(elps.__all__)


def _prints_to_stderr(call: ast.Call) -> bool:
    return any(k.arg == "file" and ast.unparse(k.value) == "sys.stderr" for k in call.keywords)


def test_only_cli_main_writes_to_stdout():
    """Each command returns its exit code, payload and text lines, and
    `cli.main` prints one of them: every other `print` in `cli.py` goes to
    stderr."""
    tree = ast.parse((SOURCE / "cli.py").read_text(encoding="utf-8"))
    found = [
        f"{function.name}:{node.lineno}"
        for function in tree.body
        if isinstance(function, ast.FunctionDef) and function.name != "main"
        for node in ast.walk(function)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "print"
        and not _prints_to_stderr(node)
    ]
    assert not found, "prints to stdout outside main: " + ", ".join(found)


def test_the_package_parses_as_python_3_10():
    """`requires-python = ">=3.10"`: no module uses syntax newer than 3.10."""
    for path in sorted(SOURCE.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


# (module, NAME, value) of every cap in the README's list of caps
CAPS = re.findall(r"^- `(\w+)\.([A-Z0-9_]+)` \((\d+)", README, re.MULTILINE)


def test_the_readme_names_each_cap_where_it_is_used():
    """The README lists each cap as `module.NAME` (value, use), the one the
    CLI sets, `objective.MAX_ATOMS`, first; every listed constant exists in
    its module with that value."""
    assert len(CAPS) == 7
    assert CAPS[0][:2] == ("objective", "MAX_ATOMS")
    for module, name, value in CAPS:
        assert getattr(importlib.import_module(f"elps.{module}"), name) == int(value), (module, name)
    assert re.search(r"`--max-atoms` sets `objective\.MAX_ATOMS`", README)


def test_no_module_copies_a_cap_by_a_from_import():
    """A cap read as `module.NAME` when its check runs sees what the CLI or
    a test set there; a name copied by `from module import NAME` would not."""
    names = {name for _, name, _ in CAPS}
    found = [
        f"{path.name}:{node.lineno} {alias.name}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name in names
    ]
    assert not found, "caps copied by a from-import: " + ", ".join(found)


def _reads_the_environment(node) -> bool:
    """`os.environ`, `os.getenv` or `os.putenv`, or one of them imported from `os`."""
    names = {"environ", "getenv", "putenv"}
    if isinstance(node, ast.Attribute):
        return isinstance(node.value, ast.Name) and node.value.id == "os" and node.attr in names
    if isinstance(node, ast.ImportFrom):
        return node.module == "os" and any(alias.name in names for alias in node.names)
    return False


def test_no_module_reads_the_environment():
    """Every setting enters through a CLI option or a module constant, never
    through an environment variable."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if _reads_the_environment(node)
    ]
    assert not found, "environment reads: " + ", ".join(found)


def _readme_examples() -> list:
    """(command after `$ elps `, the lines shown under it) for each command
    of the README's example block."""
    block = README.split("Examples (fixtures ship in", 1)[1].split("```\n", 2)[1]
    return [
        pytest.param(command, shown, id=command.partition("#")[0].strip())
        for command, *shown in (chunk.splitlines() for chunk in re.split(r"^\$ elps ", block, flags=re.M)[1:])
    ]


@pytest.mark.parametrize("command, shown", _readme_examples())
def test_the_readme_examples_print_what_they_show(monkeypatch, capsys, command, shown):
    """Run from the repository root, each example prints the lines shown
    under it, where a `...` line stands for any run of lines, and exits
    with the code its `# exit code N` comment gives, if it has one."""
    monkeypatch.chdir(ROOT)
    code = cli.main(shlex.split(command, comments=True))
    out = capsys.readouterr().out
    pattern = "".join(r"(?:.*\n)*" if line == "..." else re.escape(line) + "\n" for line in shown)
    assert re.fullmatch(pattern, out), out
    expected = re.search(r"# exit code (\d+)", command)
    if expected:
        assert code == int(expected[1])
