"""Fixture corpus, expectation checks and the semantics-by-property matrix.

Every fixture expectation carries a provenance note; values marked
"hand-derived" were additionally cross-checked against the brute-force
oracle.  Matrix cells are three-valued: "holds" needs at least one passing
check and zero violations, "violated" needs a concrete witness report, and
"untested" records capacity skips instead of silently passing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .engine import REGISTRY, compute_world_views, once, solve_memo
from .errors import CapacityError, ElpError, NotObjectiveError, UnsupportedMLiteral
from .foundedness import is_founded
from .generators import (
    random_epistemic_program,
    random_objective_program,
    random_subjective_constraint,
)
from .modal import WorldView, is_s5_model, world_views_to_json
from .objective import stable_models
from .semantics import SemanticsId
from .splitting import (
    PropertyReport,
    check_constraint_monotonicity,
    check_epistemic_splitting,
    enumerate_epistemic_splitting_sets,
    equation_report,
)
from .syntax import Program, interp_key, load_program, parse_rule

SEMANTICS_COLUMNS = (
    SemanticsId.G91,
    SemanticsId.G11,
    SemanticsId.F15,
    SemanticsId.K15,
    SemanticsId.S17,
    SemanticsId.C19,
)

PROPERTY_ROWS = (
    "supra_s5",
    "supra_asp",
    "subjective_constraint_monotonicity",
    "epistemic_splitting",
)


def fixtures_dir() -> Path:
    return Path(resources.files("elps").joinpath("fixtures"))


def load_fixture(name: str) -> Program:
    return load_program((fixtures_dir() / f"{name}.elp").read_text(encoding="utf-8"))


# per-fixture expected world views (canonical JSON form), keyed by semantics
_PI1_WV = [[["a", "d"], ["b", "c"], ["b", "d"]]]
_COLLEGE_WV = [[["eligible(mike)", "high(mike)", "interview(mike)"], ["fair(mike)", "interview(mike)"]]]
_COLLEGE3_WV = [
    [
        ["appointment(mike)", "eligible(mike)", "high(mike)", "interview(mike)"],
        ["appointment(mike)", "fair(mike)", "interview(mike)"],
    ]
]


@dataclass(frozen=True)
class FixtureCase:
    name: str
    expected: dict  # SemanticsId -> list of world views (json form); an unchecked one has no key
    provenance: str


FIXTURE_CASES: tuple[FixtureCase, ...] = (
    FixtureCase(
        "pi1",
        {
            SemanticsId.G91: _PI1_WV,
            SemanticsId.G11: _PI1_WV,
            SemanticsId.K15: _PI1_WV,
            SemanticsId.S17: _PI1_WV,
            SemanticsId.C19: _PI1_WV,
            # no F15: its 4 atoms exceed the EHT cap
        },
        "hand-derived (three stable models), matches the exhaustive oracle",
    ),
    FixtureCase(
        "ab",
        {sem: [[["a"], ["b"]]] for sem in SEMANTICS_COLUMNS},
        "hand-derived (single disjunction), matches the exhaustive oracle",
    ),
    FixtureCase(
        "ce1a",
        {sem: [[["a"], ["b"]]] for sem in SEMANTICS_COLUMNS},
        "all six semantics agree on this program; oracle-verified",
    ),
    FixtureCase(
        "ce1b",
        {
            SemanticsId.G91: [],
            SemanticsId.C19: [],
            SemanticsId.G11: [[["a", "c"]]],
            SemanticsId.K15: [[["a", "c"]]],
            SemanticsId.S17: [[["a", "c"]]],
            SemanticsId.F15: [[["a", "c"]]],
        },
        "constraint on a modal consequence separates the semantics; oracle-verified",
    ),
    FixtureCase(
        "ce2",
        {
            SemanticsId.G91: [],
            SemanticsId.G11: [],
            SemanticsId.C19: [],
            SemanticsId.K15: [[["a"]]],
            SemanticsId.S17: [[["a"]]],
            SemanticsId.F15: [[["a"]]],
        },
        "subjective constraint creating a world view under K15/S17/F15; oracle-verified",
    ),
    FixtureCase(
        "ka",
        {
            SemanticsId.G91: [[[]], [["a"]]],
            SemanticsId.G11: [[[]]],
            SemanticsId.K15: [[[]]],
            SemanticsId.S17: [[[]]],
            SemanticsId.F15: [[[]]],
            SemanticsId.C19: [[[]]],
        },
        "self-supporting K-loop; foundedness rejects [{a}]; oracle-verified",
    ),
    FixtureCase(
        "college",
        {
            SemanticsId.G91: _COLLEGE_WV,
            SemanticsId.G11: _COLLEGE_WV,
            SemanticsId.K15: _COLLEGE_WV,
            SemanticsId.S17: _COLLEGE_WV,
            SemanticsId.C19: _COLLEGE_WV,
            # no F15: its 8 atoms exceed the EHT cap
        },
        "hand-derived two-belief-set world view; "
        "matches the component solver and the whole-program guess loop",
    ),
    FixtureCase(
        "college3",
        {
            SemanticsId.G91: _COLLEGE3_WV,
            SemanticsId.G11: _COLLEGE3_WV,
            SemanticsId.K15: _COLLEGE3_WV,
            SemanticsId.S17: _COLLEGE3_WV,
            SemanticsId.C19: _COLLEGE3_WV,
            # no F15: its 9 atoms exceed the EHT cap
        },
        "second modal layer adds appointment(mike) to both belief sets",
    ),
)


@dataclass
class FixtureResult:
    fixture: str
    semantics: str
    ok: bool
    expected: object
    actual: object
    provenance: str


class FixtureMismatch(ElpError):
    def __init__(self, failures: list[FixtureResult]):
        self.failures = failures
        lines = [
            f"{f.fixture}/{f.semantics}: expected {f.expected} got {f.actual}" for f in failures
        ]
        super().__init__("fixture expectations failed:\n" + "\n".join(lines))


def run_fixture_checks() -> list[FixtureResult]:
    results = []
    for case in FIXTURE_CASES:
        program = once(load_fixture, case.name)
        for semantics, expected in case.expected.items():
            actual = world_views_to_json(compute_world_views(program, semantics))
            results.append(
                FixtureResult(
                    case.name, semantics.value, actual == expected, expected, actual, case.provenance
                )
            )
    return results


def require_fixtures():
    """Abort (with a diff) unless every fixture expectation passes."""
    results = run_fixture_checks()
    failures = [r for r in results if not r.ok]
    if failures:
        raise FixtureMismatch(failures)
    return results


# ---------------------------------------------------------------------------
# property matrix

# the rendered name of each row: the property rows, then the foundness column
ROW_NAMES = {
    "supra_s5": "Supra-S5",
    "supra_asp": "Supra-ASP",
    "subjective_constraint_monotonicity": "Subjective constraint monotonicity",
    "epistemic_splitting": "Splitting",
    "foundness": "Foundness",
}


@dataclass
class MatrixCell:
    checks: int = 0
    skipped: int = 0
    violations: list[PropertyReport] = field(default_factory=list)

    @property
    def verdict(self) -> str:
        """"violated" with a violation, else "holds" with a check, else "untested"."""
        if self.violations:
            return "violated"
        return "holds" if self.checks else "untested"

    def add(self, report: PropertyReport | None):
        """Count a check, or a skip when there is no report."""
        if report is None:
            self.skipped += 1
            return
        self.checks += 1
        if not report.holds:
            self.violations.append(report)


@dataclass
class PropertyMatrix:
    cells: dict  # (row of ROW_NAMES, semantics value) -> MatrixCell
    seed: int
    count: int
    fixtures: list[FixtureResult]  # the fixture expectations replayed before sampling

    def cell(self, prop: str, semantics: SemanticsId) -> MatrixCell:
        return self.cells[(prop, semantics.value)]

    def to_json(self) -> dict:
        def cell_json(c: MatrixCell) -> dict:
            return {"verdict": c.verdict, **vars(c), "violations": [r.to_json(self.seed) for r in c.violations]}

        def row_json(row: str) -> dict:
            return {s.value: cell_json(self.cells[(row, s.value)]) for s in SEMANTICS_COLUMNS}

        return {
            "seed": self.seed,
            "count": self.count,
            "columns": [s.value for s in SEMANTICS_COLUMNS],
            "rows": {prop: row_json(prop) for prop in PROPERTY_ROWS},
            "foundness": row_json("foundness"),
            "fixtures": [
                {"fixture": r.fixture, "semantics": r.semantics, "ok": r.ok, "provenance": r.provenance}
                for r in self.fixtures
            ],
        }

    def render(self) -> str:
        mark = {"holds": "✓", "violated": " ", "untested": "?"}
        width = max(len(n) for n in ROW_NAMES.values()) + 2
        lines = ["".ljust(width) + "  ".join(f"{s.value:>4}" for s in SEMANTICS_COLUMNS)]
        for row, name in ROW_NAMES.items():
            cells = (self.cells[(row, s.value)] for s in SEMANTICS_COLUMNS)
            lines.append(name.ljust(width) + "  ".join(f"{mark[c.verdict]:>4}" for c in cells))
        return "\n".join(lines)


def _checked(check, *args):
    """`check(*args)`, or None (a skip) when a capacity cap or an M-literal
    the semantics does not accept stops it."""
    try:
        return check(*args)
    except (CapacityError, UnsupportedMLiteral):
        return None


def _supra_s5_report(program: Program, semantics: SemanticsId):
    bad = [wv for wv in compute_world_views(program, semantics) if not is_s5_model(wv, program)]
    return equation_report("supra_s5", semantics, program, bad, [])


def _supra_asp_report(program: Program, semantics: SemanticsId):
    if any(r.body_sub for r in program.rules):
        raise NotObjectiveError(f"supra-ASP needs an objective program, got {program}")
    wvs = compute_world_views(program, semantics)
    models = stable_models(program)
    expected = [WorldView(models)] if models else []
    return equation_report("supra_asp", semantics, program, wvs, expected)


# fixture-backed checks per property: (fixture, extra data) pairs
_SCM_FIXTURES = (("ab", ":- not K a."), ("ka", ":- K a."), ("ce1a", ":- not K c."))
_OBJECTIVE_FIXTURES = ("pi1", "ab")


def _sample(seed, shape, count):
    """The random programs a build checks under every semantics of `shape`:
    `count` epistemic programs, `count` objective programs and one
    subjective constraint per epistemic program, drawn in that order from
    one generator seeded by (seed, shape)."""
    rng = random.Random(repr((seed, shape)))
    epistemic = [random_epistemic_program(rng, shape) for _ in range(count)]
    objective = [random_objective_program(rng, shape) for _ in range(count)]
    constraints = [random_subjective_constraint(rng, program, shape) for program in epistemic]
    return epistemic, objective, constraints


def _matrix_checks(semantics, corpus, seed, count):
    """(row, report or None for a skip) for every check of one semantics.

    The rows come in `ROW_NAMES` order.  Their random programs are the
    sample of the semantics' shape (`_sample`): the supra-S5,
    subjective-constraint-monotonicity and splitting rows check the same
    epistemic programs, and every semantics of one shape checks the same
    sample, so the run memo solves each sampled program once for all of
    them.  A splitting check runs on each of a program's first four
    splitting sets; a program whose sets cannot be enumerated is one skip.
    The foundness column checks the corpus world views, and only a
    `founded` semantics backs a pass."""
    epistemic, objective, constraints = once(_sample, seed, REGISTRY[semantics].shape, count)

    for program in [*corpus.values(), *epistemic]:
        yield "supra_s5", _checked(_supra_s5_report, program, semantics)
    for program in [*(corpus[name] for name in _OBJECTIVE_FIXTURES), *objective]:
        yield "supra_asp", _checked(_supra_asp_report, program, semantics)

    cases = [(corpus[name], parse_rule(text)) for name, text in _SCM_FIXTURES]
    for program, constraint in [*cases, *zip(epistemic, constraints)]:
        report = _checked(check_constraint_monotonicity, program, constraint, semantics)
        yield "subjective_constraint_monotonicity", report

    for program in [*corpus.values(), *epistemic]:
        split_sets = once(_checked, enumerate_epistemic_splitting_sets, program)
        if split_sets is None:
            yield "epistemic_splitting", None
        for U in sorted(split_sets or (), key=interp_key)[:4]:
            yield "epistemic_splitting", _checked(check_epistemic_splitting, program, U, semantics)

    for program in corpus.values():
        wvs = _checked(compute_world_views, program, semantics)
        if wvs is None:
            yield "foundness", None
        for wv in wvs or ():
            founded = once(is_founded, program, wv)
            unfounded = [] if founded else [wv]
            report = equation_report("foundness", semantics, program, unfounded, [])
            # a pass under a semantics not founded by construction backs no general claim
            yield "foundness", report if REGISTRY[semantics].founded or not founded else None


@solve_memo()
def build_property_matrix(semantics_list=SEMANTICS_COLUMNS, *, seed: int, count: int) -> PropertyMatrix:
    """Fixture expectations first, then `count` random programs per cell.

    The random programs are drawn once per generator shape, so columns of
    one shape check one sample (`_sample`).  Each call runs in a fresh
    `engine.solve_memo()`, and what the build repeats goes through
    `engine.once`: a (program, semantics) met twice is solved once,
    whether by the fixture replay, a check, S17's K15 base views of the K15
    column's programs, C19's G91 base views of the G91 column's programs or
    a part of the component solver, and a compiled program is searched for
    stable models once, whichever loop or check asks.  Each fixture is
    parsed once for the replay and the corpus, each shape's sample is drawn
    once, each program's splitting sets are enumerated once however many
    columns check it, and `is_founded` is asked once per (program, world
    view).  All of it is dropped when the build returns or raises.  A
    semantics listed twice is checked once.  A negative count is refused
    with a ValueError."""
    if count < 0:
        raise ValueError(f"--count must not be negative, got {count}")
    fixtures = require_fixtures()
    corpus = {case.name: once(load_fixture, case.name) for case in FIXTURE_CASES}
    cells = {(row, s.value): MatrixCell() for row in ROW_NAMES for s in SEMANTICS_COLUMNS}
    for semantics in dict.fromkeys(semantics_list):
        for row, report in _matrix_checks(semantics, corpus, seed, count):
            cells[(row, semantics.value)].add(report)
    return PropertyMatrix(cells, seed, count, fixtures)
