import itertools
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
from elps.objective import split_solutions
from elps.semantics import SemanticsId
from elps.splitting import (
    check_constraint_monotonicity,
    check_epistemic_splitting,
    combine,
    dep_relation,
    enumerate_epistemic_splitting_sets,
    epistemic_split,
    stratify,
    top_simplification,
)
from elps.syntax import Atom, Program, atom_key, parse_atom, parse_program, parse_rule, subsets
from helpers import wv_of

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
    split = epistemic_split(CE1A, CE1A.atoms)
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


def _solutions(program, U, semantics):
    """The (bottom view, simplified top, top view) solutions of a split."""
    split = epistemic_split(program, U)
    return list(split_solutions(split, lambda p: compute_world_views(p, semantics), top_simplification))


def test_epistemic_solutions_college(corpus):
    ((wv_b, _, wv_t),) = _solutions(corpus["college"], COLLEGE_U, SemanticsId.G91)
    assert combine(wv_b, wv_t) == wv_of(
        "fair(mike) interview(mike)", "high(mike) eligible(mike) interview(mike)"
    )


def test_epistemic_solutions_pi5_empty():
    assert _solutions(CE1B, {A, B}, SemanticsId.G91) == []


def test_epistemic_solutions_college3_layer(corpus):
    # splitting off the appointment layer simplifies its body to ⊤
    u = frozenset(corpus["college3"].atoms) - {parse_atom("appointment(mike)")}
    ((_, simplified, _),) = _solutions(corpus["college3"], u, SemanticsId.G91)
    assert simplified.rules == (parse_rule("appointment(mike) :- ⊤."),)


def test_check_epistemic_splitting_pi5():
    holds = check_epistemic_splitting(CE1B, {A, B}, SemanticsId.G91).to_json()
    assert holds["verdict"] == "holds"
    assert holds["lhs"] == [] and holds["rhs"] == []
    violated = check_epistemic_splitting(CE1B, {A, B}, SemanticsId.G11)
    assert violated.verdict == "violated"
    assert violated.to_json()["lhs"] == [[["a", "c"]]]
    assert violated.to_json()["rhs"] == []
    assert violated.witness() is not None


def test_check_epistemic_splitting_pi6_k15():
    report = check_epistemic_splitting(CE2, {A, B}, SemanticsId.K15).to_json()
    assert report["verdict"] == "violated"
    assert report["lhs"] == [[["a"]]]
    assert report["rhs"] == []


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
    layers = stratify(corpus["college3"])
    interview = parse_atom("interview(mike)")
    appointment = parse_atom("appointment(mike)")
    base = [parse_atom(t) for t in "high(mike) fair(mike) minority(mike) eligible(mike)".split()]
    assert {layers[a] for a in base} == {0}
    assert layers[interview] == 1
    assert layers[appointment] == 2


def test_stratify_self_loop_fails():
    with pytest.raises(NotStratified):
        stratify(parse_program("a :- K a."))


def test_stratify_modal_cycle_fails():
    with pytest.raises(NotStratified):
        stratify(parse_program("a :- K b. b :- K a."))


def test_stratify_objective_program_single_layer():
    assert set(stratify(parse_program("a :- not b. c | d :- a.")).values()) == {0}


def least_valid_levels(program: Program) -> dict[Atom, int] | None:
    """The pointwise least of the valid level assignments in {0..n-1}^atoms,
    found by trying each; None when none is valid.  An assignment is valid
    when each rule's objective atoms share one level and every dep(a, b)
    has a above b."""
    atoms = sorted(program.atoms, key=atom_key)
    deps = dep_relation(program)
    valid = []
    for levels in itertools.product(range(len(atoms)), repeat=len(atoms)):
        level = dict(zip(atoms, levels))
        if all(len({level[a] for a in r.objective_atoms}) <= 1 for r in program.rules) and all(
            level[a] > level[b] for a, b in deps
        ):
            valid.append(level)
    if not valid:
        return None
    least = {a: min(level[a] for level in valid) for a in atoms}
    assert least in valid, str(program)
    return least


def test_stratify_is_the_least_valid_levels():
    rng = random.Random(21)
    seen = {"stratified": 0, "not stratified": 0}
    for n in range(1500):
        shape = GeneratorShape(n_atoms=rng.randint(1, 4), subjective_prob=rng.choice([0.3, 0.6]))
        if n % 2:
            program = random_stratified_program(rng, shape, n_layers=rng.randint(1, 4))
        else:
            program = random_epistemic_program(rng, shape)
        expected = least_valid_levels(program)
        if expected is None:
            seen["not stratified"] += 1
            with pytest.raises(NotStratified):
                stratify(program)
        else:
            seen["stratified"] += 1
            assert stratify(program) == expected, str(program)
    assert min(seen.values()) >= 300, seen


def test_stratified_world_view_college(corpus, stratified_world_views):
    expected3 = wv_of(
        "appointment(mike) eligible(mike) high(mike) interview(mike)",
        "appointment(mike) fair(mike) interview(mike)",
    )
    expected2 = wv_of(
        "fair(mike) interview(mike)", "high(mike) eligible(mike) interview(mike)"
    )
    for semantics in (SemanticsId.G91, SemanticsId.C19):
        assert stratified_world_views(corpus["college3"], semantics) == {expected3}
        assert stratified_world_views(corpus["college"], semantics) == {expected2}


def test_stratified_world_view_failing_bottom(stratified_world_views):
    program = parse_program("a :- not a. b :- K a.")
    for semantics in (SemanticsId.G91, SemanticsId.C19):
        assert stratified_world_views(program, semantics) == frozenset()


@pytest.mark.parametrize(
    "text, expected",
    [
        ("", [[]]),
        (":- #true.", None),
        (":- #false.", [[]]),
        ("a. :- not K a.", [["a"]]),
        ("a | b. c :- K a. :- not K c.", None),
    ],
)
def test_stratified_world_view_edge_cases(text, expected, stratified_world_views):
    program = parse_program(text)
    wv = None if expected is None else WorldView.of([Atom(x) for x in interp] for interp in expected)
    for semantics in (SemanticsId.G91, SemanticsId.C19):
        assert stratified_world_views(program, semantics) == (set() if wv is None else {wv})


def test_layered_requires_stratified(whole_program):
    """The corollary's hypothesis is needed: `a :- K a` has no levels and two
    G91 world views."""
    program = parse_program("a :- K a.")
    with pytest.raises(NotStratified):
        stratify(program)
    views = compute_world_views(program, SemanticsId.G91)
    assert views == whole_program[SemanticsId.G91](program) == {wv_of(""), wv_of("a")}


def test_enumerate_epistemic_splitting_sets_examples():
    assert enumerate_epistemic_splitting_sets(CE1A) == {frozenset([A, B])}
    assert enumerate_epistemic_splitting_sets(parse_program("a :- b.")) == frozenset()
    assert enumerate_epistemic_splitting_sets(parse_program("a | b.")) == frozenset()


def _splitting_sets_ref(program):
    """Reference: every proper non-empty U that `epistemic_split` accepts."""
    atoms = sorted(program.atoms, key=atom_key)
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
    total = with_constraint = 0
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
        program = Program.of(rules)
        expected = _splitting_sets_ref(program)
        assert enumerate_epistemic_splitting_sets(program) == expected, str(program)
        total += len(expected)
        with_constraint += any(not r.head for r in program.rules)
    assert total > 200 and with_constraint > 50


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
        u = extended.atoms
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


def test_stratified_uniqueness_randomized(stratified_world_views):
    rng = random.Random(74)
    shape = GeneratorShape(n_atoms=5, max_rules=5, subjective_prob=0.5, m_prob=0.2)
    programs = [random_stratified_program(rng, shape) for _ in range(50)]
    # many constraints: subjective ones over any atoms keep the program
    # stratified and may land on either side of every level's split
    shape = GeneratorShape(n_atoms=5, max_rules=5, subjective_prob=0.5, m_prob=0.2, constraint_prob=0.4)
    constrained = 0
    for _ in range(50):
        program = random_stratified_program(rng, shape, n_layers=rng.randint(1, 4))
        extra = [
            random_subjective_constraint(rng, program, shape)
            for _ in range(shape.max_rules)
            if rng.random() < shape.constraint_prob
        ]
        constrained += bool(extra)
        programs.append(Program.of(program.rules + tuple(extra)))
    assert constrained >= 40
    for program in programs:  # the generator guarantees stratifiability
        for semantics in (SemanticsId.G91, SemanticsId.C19):
            stratified_world_views(program, semantics)


def test_stratified_generator_reads_constraint_prob():
    rng = random.Random(31)
    never = GeneratorShape(n_atoms=5, subjective_prob=0.5, constraint_prob=0.0)
    always = GeneratorShape(n_atoms=5, subjective_prob=0.5, constraint_prob=1.0)
    for _ in range(100):
        program = random_stratified_program(rng, never, n_layers=rng.randint(1, 4))
        assert all(r.head for r in program.rules), str(program)
        one_layer = random_stratified_program(rng, always, n_layers=1)
        assert one_layer.rules and not any(r.head for r in one_layer.rules), str(one_layer)
        layered = random_stratified_program(rng, always, n_layers=rng.randint(2, 4))
        assert not any(r.head for r in layered.rules), str(layered)
        stratify(one_layer)
        stratify(layered)


def test_property_report_json_shape():
    """Outside a matrix build a report renders no seed; a build renders its
    own, which the `"seed": 7` witnesses of the properties golden pin."""
    report = check_epistemic_splitting(CE1B, {A, B}, SemanticsId.G11)
    payload = report.to_json()
    assert set(payload) == {"property", "semantics", "program", "U", "verdict", "lhs", "rhs", "seed"}
    assert payload["seed"] is None
    assert payload["semantics"] == "g11"


def test_epistemic_split_refuses_an_unknown_placement():
    with pytest.raises(ValueError, match="^placement must be 'bottom' or 'top', got 'middle'$"):
        epistemic_split(CE1A, {A, B}, "middle")


def test_a_report_that_holds_has_no_witness():
    report = check_epistemic_splitting(CE1A, {A, B}, SemanticsId.G91)
    assert report.holds and report.witness() is None
