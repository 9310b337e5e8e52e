import random

import pytest

from elps.engine import compute_world_views
from elps.errors import NotAnEpistemicSplittingSet, NotStratified
from elps.generators import (
    GeneratorShape,
    random_epistemic_program,
    random_stratified_program,
    random_subjective_constraint,
)
from elps.modal import WorldView
from elps.semantics import SemanticsId
from elps.splitting import (
    check_constraint_monotonicity,
    check_epistemic_splitting,
    combine,
    dep_relation,
    enumerate_epistemic_splitting_sets,
    epistemic_solutions,
    epistemic_split,
    layered_world_view,
    stratify,
    top_simplification,
)
from elps.syntax import Atom, Program, atom_key, parse_atom, parse_program, parse_rule, subsets

A, B, C, D = (Atom(x) for x in "abcd")
CE1A = parse_program("a | b. c :- K a.")
CE1B = parse_program("a | b. c :- K a. :- not c.")
CE2 = parse_program("a | b. :- not K a.")

COLLEGE_U = frozenset(
    parse_atom(t)
    for t in (
        "high(mike) fair(mike) eligible(mike) minority(mike) "
        "-eligible(mike) -fair(mike) -high(mike)"
    ).split()
)


def wv_of(*texts):
    return WorldView.of([parse_atom(t) for t in text.split()] for text in texts)


def test_dep_relation_examples():
    assert dep_relation(CE1A) == {(C, A)}
    assert dep_relation(parse_program("a :- not b. c | d.")) == frozenset()
    rule19 = parse_program("interview(mike) :- not K eligible(mike), not K -eligible(mike).")
    assert dep_relation(rule19) == {
        (parse_atom("interview(mike)"), parse_atom("eligible(mike)")),
        (parse_atom("interview(mike)"), parse_atom("-eligible(mike)")),
    }


def test_epistemic_split_college(corpus):
    split = epistemic_split(corpus["college"], COLLEGE_U)
    assert split.top.rules == (
        parse_rule("interview(mike) :- not K eligible(mike), not K -eligible(mike)."),
    )
    assert set(split.bottom.rules) == set(corpus["college"].rules) - set(split.top.rules)


def test_epistemic_split_rejects_objective_reference():
    program = parse_program("p | q. s :- p, K q.")
    with pytest.raises(NotAnEpistemicSplittingSet) as exc:
        epistemic_split(program, {Atom("p"), Atom("q")})
    assert parse_rule("s :- p, K q.") in exc.value.violators


def test_epistemic_split_whole_universe():
    split = epistemic_split(CE1A, CE1A.atom_universe)
    assert split.bottom == CE1A
    assert split.top.rules == ()


def test_subjective_constraint_placement():
    split_bottom = epistemic_split(CE2, {A, B}, placement="bottom")
    assert parse_rule(":- not K a.") in split_bottom.bottom.rules
    split_top = epistemic_split(CE2, {A, B}, placement="top")
    assert parse_rule(":- not K a.") in split_top.top.rules


def test_top_simplification_examples(corpus):
    split = epistemic_split(corpus["college"], COLLEGE_U)
    simplified = top_simplification(split, wv_of("fair(mike)", "high(mike) eligible(mike)"))
    assert simplified.rules == (parse_rule("interview(mike) :- not ⊥, not ⊥."),)

    split5 = epistemic_split(CE1B, {A, B})
    e5 = top_simplification(split5, wv_of("a", "b"))
    assert set(e5.rules) == {parse_rule("c :- ⊥."), parse_rule(":- not c.")}

    no_u_literals = epistemic_split(parse_program("a. c :- K b."), {A})
    assert top_simplification(no_u_literals, wv_of("a")) == no_u_literals.top


def test_combine_examples():
    assert combine(wv_of("a"), wv_of("c", "d")) == wv_of("a c", "a d")
    some = wv_of("a b", "c")
    assert combine(some, wv_of("")) == some
    assert combine(
        wv_of("fair(mike)", "high(mike) eligible(mike)"), wv_of("interview(mike)")
    ) == wv_of(
        "fair(mike) interview(mike)", "high(mike) eligible(mike) interview(mike)"
    )


def test_epistemic_solutions_college(corpus):
    solutions = epistemic_solutions(corpus["college"], COLLEGE_U, SemanticsId.G91)
    assert len(solutions) == 1
    combined = next(iter(solutions)).combined
    assert combined == wv_of(
        "fair(mike) interview(mike)", "high(mike) eligible(mike) interview(mike)"
    )


def test_epistemic_solutions_pi5_empty():
    assert epistemic_solutions(CE1B, {A, B}, SemanticsId.G91) == frozenset()


def test_epistemic_solutions_college3_layer(corpus):
    # splitting off the appointment layer simplifies its body to ⊤
    u = frozenset(corpus["college3"].atom_universe) - {parse_atom("appointment(mike)")}
    split = epistemic_split(corpus["college3"], u)
    (solution,) = epistemic_solutions(corpus["college3"], u, SemanticsId.G91)
    simplified = top_simplification(split, solution.wv_b)
    assert simplified.rules == (parse_rule("appointment(mike) :- ⊤."),)


def test_check_epistemic_splitting_pi5():
    holds = check_epistemic_splitting(CE1B, {A, B}, SemanticsId.G91)
    assert holds.verdict == "holds"
    assert holds.lhs == [] and holds.rhs == []
    violated = check_epistemic_splitting(CE1B, {A, B}, SemanticsId.G11)
    assert violated.verdict == "violated"
    assert violated.lhs == [[["a", "c"]]]
    assert violated.rhs == []
    assert violated.witness() is not None


def test_check_epistemic_splitting_pi6_k15():
    report = check_epistemic_splitting(CE2, {A, B}, SemanticsId.K15)
    assert report.verdict == "violated"
    assert report.lhs == [[["a"]]]
    assert report.rhs == []


def test_check_constraint_monotonicity_examples():
    ab = parse_program("a | b.")
    constraint = parse_rule(":- not K a.")
    assert check_constraint_monotonicity(ab, constraint, SemanticsId.K15).verdict == "violated"
    assert check_constraint_monotonicity(ab, constraint, SemanticsId.F15).verdict == "violated"
    assert check_constraint_monotonicity(ab, constraint, SemanticsId.G91).verdict == "holds"
    assert check_constraint_monotonicity(ab, constraint, SemanticsId.G11).verdict == "holds"
    assert check_constraint_monotonicity(ab, constraint, SemanticsId.C19).verdict == "holds"
    with pytest.raises(ValueError):
        check_constraint_monotonicity(ab, parse_rule(":- not a."), SemanticsId.G91)


def test_stratify_college3(corpus):
    strat = stratify(corpus["college3"])
    interview = parse_atom("interview(mike)")
    appointment = parse_atom("appointment(mike)")
    base = [parse_atom(t) for t in "high(mike) fair(mike) minority(mike) eligible(mike)".split()]
    assert {strat.layers[a] for a in base} == {0}
    assert strat.layers[interview] == 1
    assert strat.layers[appointment] == 2


def test_stratify_self_loop_fails():
    with pytest.raises(NotStratified):
        stratify(parse_program("a :- K a."))


def test_stratify_modal_cycle_fails():
    with pytest.raises(NotStratified):
        stratify(parse_program("a :- K b. b :- K a."))


def test_stratify_objective_program_single_layer():
    strat = stratify(parse_program("a :- not b. c | d :- a."))
    assert set(strat.layers.values()) == {0}


def test_layered_world_view_college(corpus):
    expected3 = wv_of(
        "appointment(mike) eligible(mike) high(mike) interview(mike)",
        "appointment(mike) fair(mike) interview(mike)",
    )
    expected2 = wv_of(
        "fair(mike) interview(mike)", "high(mike) eligible(mike) interview(mike)"
    )
    for semantics in (SemanticsId.G91, SemanticsId.C19):
        assert layered_world_view(corpus["college3"], semantics) == expected3
        assert layered_world_view(corpus["college"], semantics) == expected2


def test_layered_world_view_failing_bottom():
    program = parse_program("a :- not a. b :- K a.")
    assert layered_world_view(program, SemanticsId.G91) is None


def test_layered_requires_stratified():
    with pytest.raises(NotStratified):
        layered_world_view(parse_program("a :- K a."), SemanticsId.G91)


def test_enumerate_epistemic_splitting_sets_examples():
    assert enumerate_epistemic_splitting_sets(CE1A) == {frozenset([A, B])}
    assert enumerate_epistemic_splitting_sets(parse_program("a :- b.")) == frozenset()
    assert enumerate_epistemic_splitting_sets(parse_program("a | b.")) == frozenset()


def _splitting_sets_ref(program):
    """Reference: every proper non-empty U that `epistemic_split` accepts."""
    atoms = sorted(program.atom_universe, key=atom_key)
    found = set()
    for u in subsets(atoms):
        if not u or len(u) == len(atoms):
            continue
        try:
            epistemic_split(program, u)
        except NotAnEpistemicSplittingSet:
            continue
        found.add(u)
    return found


def test_enumerate_epistemic_splitting_sets_matches_epistemic_split():
    rng = random.Random(75)
    spare = [Atom(x) for x in ("x", "y")]
    total = with_extra = with_constraint = 0
    for _ in range(300):
        n_atoms = rng.randint(2, 6)
        shape = GeneratorShape(
            n_atoms=n_atoms,
            max_rules=rng.randint(1, 5),
            subjective_prob=0.5,
            m_prob=0.2,
            constraint_prob=0.3,
        )
        program = random_epistemic_program(rng, shape)
        rules = list(program.rules)
        if rng.random() < 0.3:
            rules.append(random_subjective_constraint(rng, program, shape))
        extra = frozenset(rng.sample(spare, rng.randint(0, 2)))
        program = Program.of(rules, extra)
        expected = _splitting_sets_ref(program)
        assert enumerate_epistemic_splitting_sets(program) == expected, str(program)
        total += len(expected)
        with_extra += bool(extra)
        with_constraint += any(not r.head for r in program.rules)
    assert total > 300 and with_extra > 50 and with_constraint > 50


def test_placement_indifference_for_g91_c19():
    rng = random.Random(71)
    shape = GeneratorShape(n_atoms=4, max_rules=4, subjective_prob=0.5, m_prob=0.2)
    compared = 0
    for _ in range(40):
        program = random_epistemic_program(rng, shape)
        for u in enumerate_epistemic_splitting_sets(program):
            for semantics in (SemanticsId.G91, SemanticsId.C19):
                bottom = check_epistemic_splitting(program, u, semantics, "bottom")
                top = check_epistemic_splitting(program, u, semantics, "top")
                assert bottom.verdict == top.verdict == "holds", (str(program), sorted(map(str, u)))
                compared += 1
    assert compared >= 20


def test_splitting_implies_constraint_monotonicity_instancewise():
    # whenever the splitting check with U = all atoms (constraint on top)
    # holds, the monotonicity check for that constraint must hold too
    rng = random.Random(72)
    shape = GeneratorShape(n_atoms=3, max_rules=3, subjective_prob=0.5)
    confirmed = 0
    for _ in range(60):
        program = random_epistemic_program(rng, shape)
        constraint = random_subjective_constraint(rng, program, shape)
        extended = Program.of(program.rules + (constraint,))
        u = extended.atom_universe
        for semantics in (SemanticsId.G91, SemanticsId.K15, SemanticsId.C19):
            split_report = check_epistemic_splitting(extended, u, semantics, "top")
            if split_report.verdict != "holds":
                continue
            scm_report = check_constraint_monotonicity(program, constraint, semantics)
            assert scm_report.verdict == "holds", (str(program), str(constraint), semantics)
            confirmed += 1
    assert confirmed >= 30


def test_g91_c19_satisfy_epistemic_splitting_randomized():
    rng = random.Random(73)
    shape = GeneratorShape(n_atoms=4, max_rules=5, subjective_prob=0.45, m_prob=0.2)
    checked = 0
    for _ in range(50):
        program = random_epistemic_program(rng, shape)
        for u in enumerate_epistemic_splitting_sets(program):
            for semantics in (SemanticsId.G91, SemanticsId.C19):
                report = check_epistemic_splitting(program, u, semantics)
                assert report.verdict == "holds", (str(program), report.U)
                checked += 1
    assert checked >= 40


def test_stratified_uniqueness_randomized():
    rng = random.Random(74)
    shape = GeneratorShape(n_atoms=5, max_rules=5, subjective_prob=0.5, m_prob=0.2)
    for _ in range(50):
        program = random_stratified_program(rng, shape)
        stratify(program)  # generator guarantees stratifiability
        for semantics in (SemanticsId.G91, SemanticsId.C19):
            direct = compute_world_views(program, semantics)
            assert len(direct) <= 1, str(program)
            layered = layered_world_view(program, semantics)  # asserts agreement
            assert (layered is None) == (not direct)


def test_property_report_json_shape():
    report = check_epistemic_splitting(CE1B, {A, B}, SemanticsId.G11, seed=7)
    payload = report.to_json()
    assert set(payload) == {"property", "semantics", "program", "U", "verdict", "lhs", "rhs", "seed"}
    assert payload["seed"] == 7
    assert payload["semantics"] == "g11"
