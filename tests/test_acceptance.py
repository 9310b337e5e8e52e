"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
and enforcing the stated runtime budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import random
import time
from contextlib import contextmanager

from elps.engine import REGISTRY, brute_force_world_views, compute_world_views
from elps.eht import equilibrium_eht_models, f15_world_views
from elps.errors import NotASplittingSet
from elps.foundedness import (
    UnfoundedPair,
    greatest_unfounded_set,
    is_founded,
    is_founded_brute,
)
from elps.generators import (
    GeneratorShape,
    random_epistemic_program,
    random_objective_program,
    random_stratified_program,
)
from elps.harness import SEMANTICS_COLUMNS, build_property_matrix
from elps.objective import objective_solutions, stable_models
from elps.planning import generate_conformant_world_views, is_conformant_plan
from elps.semantics import (
    SemanticsId,
    s17_world_views,
    subjective_cores,
    world_views,
)
from elps.splitting import (
    check_constraint_monotonicity,
    check_epistemic_splitting,
    enumerate_epistemic_splitting_sets,
)
from elps.syntax import parse_atom, parse_program, parse_rule
from helpers import wv_of

ALL = list(SemanticsId)


@contextmanager
def criterion(number, description, limit_seconds):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        elapsed = time.perf_counter() - start
        print(f"\nACCEPTANCE {number} ({description}): FAIL after {elapsed:.2f}s")
        raise
    elapsed = time.perf_counter() - start
    verdict = "PASS" if elapsed < limit_seconds else "FAIL (over time budget)"
    print(f"\nACCEPTANCE {number} ({description}): {verdict} "
          f"in {elapsed:.2f}s (limit {limit_seconds:g}s)")
    assert elapsed < limit_seconds


def test_criterion_1_ce1_divergence():
    with criterion(1, "ce1a/ce1b: all-agree vs constraint divergence", 1.0):
        ce1a = parse_program("a | b. c :- K a.")
        for semantics in ALL:
            assert compute_world_views(ce1a, semantics) == {wv_of("a", "b")}, semantics
        ce1b = parse_program("a | b. c :- K a. :- not c.")
        for semantics in (SemanticsId.G91, SemanticsId.C19):
            assert compute_world_views(ce1b, semantics) == frozenset()
        for semantics in (SemanticsId.G11, SemanticsId.K15, SemanticsId.S17):
            assert compute_world_views(ce1b, semantics) == {wv_of("a c")}


def test_criterion_2_ce2_monotonicity():
    with criterion(2, "ce2 + constraint monotonicity verdicts", 1.0):
        ce2 = parse_program("a | b. :- not K a.")
        assert compute_world_views(ce2, SemanticsId.K15) == {wv_of("a")}
        assert compute_world_views(ce2, SemanticsId.S17) == {wv_of("a")}
        assert compute_world_views(ce2, SemanticsId.G91) == frozenset()
        ab = parse_program("a | b.")
        constraint = parse_rule(":- not K a.")
        for semantics in (SemanticsId.K15, SemanticsId.S17):
            assert check_constraint_monotonicity(ab, constraint, semantics).verdict == "violated"
        for semantics in (SemanticsId.G91, SemanticsId.G11, SemanticsId.C19):
            assert check_constraint_monotonicity(ab, constraint, semantics).verdict == "holds"


def test_criterion_3_f15_selection():
    with criterion(3, "F15 equilibrium selection on the tiny corpus", 10.0):
        ce2 = parse_program("a | b. :- not K a.")
        assert f15_world_views(ce2) == {wv_of("a")}
        ab = parse_program("a | b.")
        assert f15_world_views(ab) == {wv_of("a", "b")}
        assert equilibrium_eht_models(ab) == {wv_of("a"), wv_of("b"), wv_of("a", "b")}


def test_criterion_4_self_support():
    with criterion(4, "self-support case", 1.0):
        ka = parse_program("a :- K a.")
        assert compute_world_views(ka, SemanticsId.G91) == {wv_of(""), wv_of("a")}
        assert compute_world_views(ka, SemanticsId.C19) == {wv_of("")}
        certificate = greatest_unfounded_set(ka, wv_of("a"))
        a = parse_atom("a")
        assert UnfoundedPair(frozenset([a]), frozenset([a])) in certificate


def test_criterion_5_college(corpus, stratified_world_views):
    with criterion(5, "college example by components + whole program", 1.0):
        expected2 = wv_of("fair(mike) interview(mike)",
                          "high(mike) eligible(mike) interview(mike)")
        appointment = parse_atom("appointment(mike)")
        for semantics in (SemanticsId.G91, SemanticsId.C19):
            assert stratified_world_views(corpus["college"], semantics) == {expected2}
            (direct3,) = stratified_world_views(corpus["college3"], semantics)
            assert all(appointment in i for i in direct3.interps)
            assert len(direct3) == 2


def test_criterion_6_objective_splitting():
    with criterion(6, "objective splitting, 1000 random programs", 60.0):
        rng = random.Random(2025)
        shape = GeneratorShape(n_atoms=5, max_rules=6)
        for _ in range(1000):
            program = random_objective_program(rng, shape)
            expected = stable_models(program)
            atoms = sorted(program.atoms)
            for mask in range(1 << len(atoms)):
                u = frozenset(a for i, a in enumerate(atoms) if mask & (1 << i))
                try:
                    solutions = objective_solutions(program, u)
                except NotASplittingSet:
                    continue
                assert {ib | it for ib, it in solutions} == expected, (str(program), sorted(map(str, u)))


def test_criterion_7_epistemic_splitting():
    with criterion(7, "epistemic splitting, 500 random programs", 300.0):
        rng = random.Random(2026)
        shape = GeneratorShape(n_atoms=4, max_rules=5, subjective_prob=0.45, m_prob=0.2)
        checks = 0
        for _ in range(500):
            program = random_epistemic_program(rng, shape)
            for u in enumerate_epistemic_splitting_sets(program):
                for semantics in (SemanticsId.G91, SemanticsId.C19):
                    report = check_epistemic_splitting(program, u, semantics)
                    assert report.verdict == "holds", (str(program), report.U, semantics)
                    checks += 1
        assert checks >= 200

        # fixture suite exhibits at least one violation per remaining semantics
        ce1b = parse_program("a | b. c :- K a. :- not c.")
        ce2 = parse_program("a | b. :- not K a.")
        u = {parse_atom("a"), parse_atom("b")}
        for semantics in (SemanticsId.G11, SemanticsId.K15, SemanticsId.S17, SemanticsId.F15):
            violations = [
                check_epistemic_splitting(fixture, u, semantics).verdict == "violated"
                for fixture in (ce1b, ce2)
            ]
            assert any(violations), semantics


def test_criterion_8_oracle_equivalence():
    with criterion(8, "guess path vs brute-force oracle", 300.0):
        rng = random.Random(2027)
        shape = GeneratorShape(n_atoms=3, max_rules=4, subjective_prob=0.5)
        for _ in range(220):
            program = random_epistemic_program(rng, shape)
            views = {}
            for semantics in (SemanticsId.G91, SemanticsId.G11, SemanticsId.K15):
                views[semantics] = world_views(program, semantics)
                assert views[semantics] == brute_force_world_views(program, semantics)
            s17 = s17_world_views(program)
            assert s17 == brute_force_world_views(program, SemanticsId.S17)
            assert s17 <= views[SemanticsId.K15]  # S17 keeps the maximal K15 views
            for wv in views[SemanticsId.G91]:
                assert is_founded(program, wv) == is_founded_brute(program, wv)
        # M-literals via the G91, C19 and F15 routes
        shape_m = GeneratorShape(n_atoms=3, max_rules=4, subjective_prob=0.5, m_prob=0.35)
        twins = 0  # programs where some `K l` has its `M l`, so the loop skips guesses
        for _ in range(80):
            program = random_epistemic_program(rng, shape_m)
            g91 = world_views(program, SemanticsId.G91)
            assert g91 == brute_force_world_views(program, SemanticsId.G91)
            c19 = compute_world_views(program, SemanticsId.C19)
            assert c19 == brute_force_world_views(program, SemanticsId.C19)
            assert c19 <= g91  # C19 keeps the founded G91 views
            f15 = compute_world_views(program, SemanticsId.F15)
            assert f15 == brute_force_world_views(program, SemanticsId.F15)
            cores = subjective_cores(program)
            k_inner = {c.inner for c in cores if c.modality == "K"}
            twins += any(c.modality == "M" and c.inner in k_inner for c in cores)
        assert twins >= 10


def test_criterion_9_stratified_uniqueness(stratified_world_views):
    with criterion(9, "stratified uniqueness, by components + whole program", 60.0):
        rng = random.Random(2028)
        shape = GeneratorShape(n_atoms=5, max_rules=5, subjective_prob=0.5, m_prob=0.2)
        for _ in range(200):
            program = random_stratified_program(rng, shape)
            for semantics in (SemanticsId.G91, SemanticsId.C19):
                stratified_world_views(program, semantics)  # asserts at most one, as the whole program


def test_criterion_10_property_matrix():
    with criterion(10, "property matrix reproduction", 600.0):
        matrix = build_property_matrix(seed=2025, count=20)
        expected = {
            "supra_s5": ["holds"] * 6,
            "supra_asp": ["holds"] * 6,
            "subjective_constraint_monotonicity":
                ["holds", "holds", "violated", "violated", "violated", "holds"],
            "epistemic_splitting":
                ["holds", "violated", "violated", "violated", "violated", "holds"],
        }
        for prop, row in expected.items():
            actual = [matrix.cell(prop, s).verdict for s in SEMANTICS_COLUMNS]
            assert actual == row, (prop, actual)
            for semantics, verdict in zip(SEMANTICS_COLUMNS, row):
                cell = matrix.cell(prop, semantics)
                if verdict == "violated":
                    assert cell.violations and all(
                        v.witness() is not None for v in cell.violations
                    )
        # the registry's splitting claims are the row this matrix reproduces
        assert set(REGISTRY) == set(SemanticsId)
        claimed = [REGISTRY[s].splitting for s in SEMANTICS_COLUMNS]
        assert claimed == [v == "holds" for v in expected["epistemic_splitting"]]
        # only C19 world views are founded by construction (the foundness row)
        assert [s for s in SEMANTICS_COLUMNS if REGISTRY[s].founded] == [SemanticsId.C19]


def test_criterion_11_conformant_planning(corpus):
    with criterion(11, "conformant planning on the lamps domain", 1.0):
        goal = parse_atom("light")
        t1, t2 = parse_atom("toggle(l1)"), parse_atom("toggle(l2)")
        ok1, _ = is_conformant_plan(corpus["lamps"], [t1], goal)
        ok2, _ = is_conformant_plan(corpus["lamps"], [t2], goal)
        assert ok1 and not ok2
        surviving = generate_conformant_world_views(corpus["lamps"], [t1, t2], goal)
        assert surviving == {
            wv_of(
                "toggle(l1) plugged(l1) plugged(l2) light",
                "toggle(l1) plugged(l1) -plugged(l2) light",
            )
        }
