import sys
import threading
from collections import Counter

import pytest

from elps import engine, harness, splitting
from elps.engine import compute_world_views
from elps.errors import CapacityError, NotObjectiveError, UnsupportedMLiteral
from elps.generators import GeneratorShape
from elps.harness import (
    FIXTURE_CASES,
    FixtureMismatch,
    PROPERTY_ROWS,
    ROW_NAMES,
    SEMANTICS_COLUMNS,
    build_property_matrix,
    fixtures_dir,
    load_fixture,
    require_fixtures,
    run_fixture_checks,
)
from elps.semantics import SemanticsId
from elps.syntax import parse_program


def test_fixture_expectations_all_pass():
    results = require_fixtures()
    assert results and all(r.ok for r in results)


def test_every_expectation_carries_provenance():
    for case in FIXTURE_CASES:
        assert case.provenance.strip()


@pytest.fixture()
def tampered_corpus(monkeypatch, tmp_path):
    """The harness reads a copy of the fixture corpus in which ka.elp is a
    plain fact."""
    for path in fixtures_dir().glob("*.elp"):
        (tmp_path / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    (tmp_path / "ka.elp").write_text("a.\n", encoding="utf-8")
    monkeypatch.setattr(harness, "fixtures_dir", lambda: tmp_path)


def test_fixture_mismatch_aborts_with_diff(tampered_corpus):
    with pytest.raises(FixtureMismatch) as exc:
        require_fixtures()
    assert any(f.fixture == "ka" for f in exc.value.failures)
    assert "expected" in str(exc.value)


# the expected checkmark pattern per property row, in column order
# (g91, g11, f15, k15, s17, c19)
EXPECTED_ROWS = {
    "supra_s5": ["holds"] * 6,
    "supra_asp": ["holds"] * 6,
    "subjective_constraint_monotonicity": ["holds", "holds", "violated", "violated", "violated", "holds"],
    "epistemic_splitting": ["holds", "violated", "violated", "violated", "violated", "holds"],
}


@pytest.fixture(scope="module")
def matrix():
    return build_property_matrix(seed=2025, count=6)


def test_matrix_reproduces_published_rows(matrix):
    for prop, expected in EXPECTED_ROWS.items():
        actual = [matrix.cell(prop, s).verdict for s in SEMANTICS_COLUMNS]
        assert actual == expected, (prop, actual)


def test_blank_cells_carry_witnesses(matrix):
    for prop in PROPERTY_ROWS:
        for semantics in SEMANTICS_COLUMNS:
            cell = matrix.cell(prop, semantics)
            if cell.verdict == "violated":
                assert cell.violations, (prop, semantics)
                for report in cell.violations:
                    assert report.witness() is not None
            if cell.verdict == "holds":
                assert cell.checks > 0 and not cell.violations


def test_foundness_column(matrix):
    assert matrix.cell("foundness", SemanticsId.C19).verdict == "holds"
    g91 = matrix.cell("foundness", SemanticsId.G91)
    assert g91.verdict == "violated"  # the self-supported world view is the witness
    assert any("K a" in v.to_json()["program"] for v in g91.violations)
    for semantics in (SemanticsId.G11, SemanticsId.K15, SemanticsId.S17, SemanticsId.F15):
        assert matrix.cell("foundness", semantics).verdict == "untested"


def test_matrix_json_shape(matrix):
    payload = matrix.to_json()
    assert payload["columns"] == [s.value for s in SEMANTICS_COLUMNS]
    assert set(payload["rows"]) == set(PROPERTY_ROWS)
    cell = payload["rows"]["epistemic_splitting"]["g11"]
    assert cell["verdict"] == "violated"
    assert cell["violations"][0]["property"] == "epistemic_splitting"


def test_matrix_render_contains_marks(matrix):
    text = matrix.render()
    assert "Supra-S5" in text and "Splitting" in text and "✓" in text


def test_run_fixture_checks_includes_f15_on_tiny_corpus():
    results = run_fixture_checks()
    f15_checked = {r.fixture for r in results if r.semantics == "f15"}
    assert {"ab", "ce1a", "ce1b", "ce2", "ka"} <= f15_checked
    # over the EHT cap: these cases have no F15 key
    assert f15_checked.isdisjoint({"pi1", "college", "college3"})
    assert all(isinstance(wvs, list) for case in FIXTURE_CASES for wvs in case.expected.values())


@pytest.fixture
def solved(monkeypatch):
    """Counts the solves that `engine.solve` ran and did not answer from its
    memo, per (program, semantics); a solve that raises is not
    stored, so not counted."""
    counts = Counter()
    inner = engine._solve

    def _solve(program, semantics):
        wvs = inner(program, semantics)
        counts[program, semantics] += 1
        return wvs

    monkeypatch.setattr(engine, "_solve", _solve)
    return counts


def test_matrix_build_solves_each_pair_once(solved):
    build_property_matrix(seed=3, count=2)
    # college3 meets g91 in the fixture replay, supra-S5, every splitting
    # check and the foundness column
    assert solved[load_fixture("college3"), SemanticsId.G91] == 1
    assert max(solved.values()) == 1
    first = set(solved)
    build_property_matrix(seed=3, count=2)
    assert set(solved) == first and set(solved.values()) == {2}  # nothing kept between builds


def test_matrix_build_searches_each_compiled_program_once(searches):
    """Every stable-model search of a build, whichever guess loop, semantics
    or check asks for it, runs once per distinct compiled program."""
    build_property_matrix(seed=3, count=2)
    assert searches and max(searches.values()) == 1
    first = set(searches)
    build_property_matrix(seed=3, count=2)
    assert searches == Counter({masks: 2 for masks in first})  # nothing kept between builds


def test_matrix_build_runs_each_guess_loop_and_split_enumeration_once(monkeypatch, guess_loops):
    """One build runs the guess loop once per (program, semantics): S17's
    K15 base views, C19's G91 base views and the component parts are read
    through the build memo.  Each program's splitting sets are enumerated
    once, however many columns check it."""
    enumerations = Counter()
    real = harness.enumerate_epistemic_splitting_sets

    def enumerate_epistemic_splitting_sets(program):
        enumerations[program] += 1
        return real(program)

    monkeypatch.setattr(harness, "enumerate_epistemic_splitting_sets", enumerate_epistemic_splitting_sets)
    build_property_matrix(seed=3, count=2)
    assert guess_loops and max(guess_loops.values()) == 1
    # college3 as a whole runs only the G11 and K15 loops: S17 reads the K15
    # views, and G91 and C19 solve its components
    college3 = load_fixture("college3")
    assert {sem for program, sem in guess_loops if program == college3} == {SemanticsId.G11, SemanticsId.K15}
    assert college3 in enumerations and max(enumerations.values()) == 1
    first_loops, first_enumerations = set(guess_loops), set(enumerations)
    build_property_matrix(seed=3, count=2)  # nothing kept between builds
    assert guess_loops == Counter({key: 2 for key in first_loops})
    assert enumerations == Counter({program: 2 for program in first_enumerations})


@pytest.mark.parametrize("base", [SemanticsId.K15, SemanticsId.G91])
def test_matrix_columns_of_one_shape_check_one_sample(guess_loops, base):
    """S17 reads its K15 base views and C19 its G91 base views from the
    solves of the K15 and G91 columns, because a column checks the sample
    of its shape: the full build runs the base guess loop on exactly the
    programs that a build of the base column alone does."""

    def looped(semantics_list):
        guess_loops.clear()
        build_property_matrix(semantics_list, seed=3, count=2)
        return {program for program, sem in guess_loops if sem is base}

    alone = looped([base])
    assert alone and looped(SEMANTICS_COLUMNS) == alone


def _column(matrix, semantics: SemanticsId) -> list:
    """The JSON cells of one column: its property rows, then its foundness."""
    payload = matrix.to_json()
    rows = [payload["rows"][row][semantics.value] for row in PROPERTY_ROWS]
    return [*rows, payload["foundness"][semantics.value]]


@pytest.fixture(scope="module")
def matrix_seed3():
    return build_property_matrix(seed=3, count=2)


@pytest.mark.parametrize("semantics", SEMANTICS_COLUMNS, ids=lambda s: s.value)
def test_matrix_column_does_not_depend_on_the_other_columns(matrix_seed3, semantics):
    """The sample a column shares with the columns of its shape shares work
    only: its cells are the same whether it is built alone or with every
    other column."""
    alone = build_property_matrix([semantics], seed=3, count=2)
    assert _column(alone, semantics) == _column(matrix_seed3, semantics)


def test_matrix_build_does_not_memoize_epistemic_solutions(monkeypatch):
    """A splitting check composes its solutions and no other check asks for
    them, so they stay out of the run memo."""
    asked = Counter()
    real = engine.once

    def once(fn, *args):
        asked[fn.__name__] += 1
        return real(fn, *args)

    for name, module in list(sys.modules.items()):
        if name == "elps" or name.startswith("elps."):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, once)
    build_property_matrix(seed=2025, count=1)
    assert asked["_solve"] and asked["epistemic_solutions"] == 0


def test_matrix_build_renders_only_the_reports_it_keeps(monkeypatch):
    """A check keeps its world views as values and only a shown report
    renders them, so a build whose checks all hold renders none."""
    rendered = []
    real = splitting.world_views_to_json
    monkeypatch.setattr(splitting, "world_views_to_json", lambda wvs: rendered.append(wvs) or real(wvs))
    matrix = build_property_matrix([SemanticsId.C19], seed=7, count=3)
    cells = [matrix.cell(row, SemanticsId.C19) for row in ROW_NAMES]
    assert sum(cell.checks for cell in cells) == 33
    assert not any(cell.violations for cell in cells)
    assert rendered == []


def test_matrix_build_parses_each_fixture_once(monkeypatch):
    """The fixture replay and the corpus of the matrix share one parse."""
    parsed = Counter()
    real = harness.load_program
    monkeypatch.setattr(harness, "load_program", lambda text: parsed.update([text]) or real(text))
    build_property_matrix(seed=3, count=0)
    assert len(parsed) == len(FIXTURE_CASES) and set(parsed.values()) == {1}


def test_matrix_counts_a_skip_per_program_past_the_split_enumeration_cap(monkeypatch):
    """A corpus program whose splitting sets cannot be enumerated is one
    skip of its splitting cell: pi1 (4 atoms), college (8) and college3 (9)
    at a cap of 3, none at the default cap."""
    columns = [SemanticsId.G91, SemanticsId.G11]
    matrix = build_property_matrix(columns, seed=3, count=0)
    assert [matrix.cells[("epistemic_splitting", s.value)].skipped for s in columns] == [0, 0]
    monkeypatch.setattr(splitting, "SPLIT_ENUM_MAX_ATOMS", 3)
    over = sum(len(load_fixture(case.name).atoms) > 3 for case in FIXTURE_CASES)
    assert over == 3
    matrix = build_property_matrix(columns, seed=3, count=0)
    assert [matrix.cells[("epistemic_splitting", s.value)].skipped for s in columns] == [over, over]


def test_foundness_column_asks_each_pair_once(monkeypatch):
    calls = Counter()
    inner = harness.is_founded

    def is_founded(program, wv):
        calls[program, wv] += 1
        return inner(program, wv)

    monkeypatch.setattr(harness, "is_founded", is_founded)
    build_property_matrix(seed=1, count=1)
    visited = []  # (program, world view) per corpus program, semantics and world view
    for case in FIXTURE_CASES:
        program = load_fixture(case.name)
        for semantics in SEMANTICS_COLUMNS:
            try:
                visited += [(program, wv) for wv in compute_world_views(program, semantics)]
            except (CapacityError, UnsupportedMLiteral):
                pass  # the column counts a skip and asks nothing
    assert set(calls) == set(visited) and set(calls.values()) == {1}
    assert len(calls) < len(visited)  # semantics share corpus world views
    first = dict(calls)
    build_property_matrix(seed=1, count=1)
    assert calls == Counter({pair: 2 for pair in first})  # nothing kept between builds


def test_no_memo_outside_a_build(solved):
    program = load_fixture("ab")
    for _ in range(2):
        compute_world_views(program, SemanticsId.G91)
    assert solved[program, SemanticsId.G91] == 2
    # nor in another thread while this one has a memo open
    with engine.solve_memo():
        compute_world_views(program, SemanticsId.G91)
        worker = threading.Thread(target=compute_world_views, args=(program, SemanticsId.G91))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        compute_world_views(program, SemanticsId.G91)
    assert solved[program, SemanticsId.G91] == 4


def test_failed_build_leaves_no_memo(solved, tampered_corpus):
    with pytest.raises(FixtureMismatch):
        build_property_matrix(seed=2025, count=1)
    assert engine._memo.get() is None
    key = (load_fixture("ab"), SemanticsId.G91)
    assert solved[key] == 1  # solved by the fixture replay before it failed
    compute_world_views(*key)
    assert solved[key] == 2


def test_supra_asp_refuses_an_epistemic_program():
    program = parse_program("a :- K b.")
    with pytest.raises(NotObjectiveError, match="^supra-ASP needs an objective program, got a :- K b\\.$"):
        harness._supra_asp_report(program, SemanticsId.G91)


@pytest.mark.parametrize(
    "field, value, bound",
    [
        ("n_atoms", 0, "at least 1"),
        ("n_atoms", 9, "at most 8"),
        ("n_atoms", 12, "at most 8"),
        ("max_rules", 0, "at least 1"),
        ("max_head", 0, "at least 1"),
        ("max_body", -1, "at least 1"),
        ("min_subjective", -1, "at least 0"),
    ],
)
def test_generator_shape_refuses_what_its_samplers_cannot_draw(field, value, bound):
    """The samplers draw from eight atoms and at least one rule, head atom
    and body literal; a shape outside that is refused by the field at fault
    rather than drawn smaller or failing inside `random`."""
    with pytest.raises(ValueError, match=f"^GeneratorShape.{field} must be {bound}, got {value}$"):
        GeneratorShape(**{field: value})
    GeneratorShape(**{field: int(bound.split()[-1])})  # the bound itself is a drawable shape
