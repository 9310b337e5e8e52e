import random
import re
import threading
from collections import Counter

import pytest

from elps import engine, objective
from elps.errors import CapacityError, NotASplittingSet, NotObjectiveError
from elps.generators import GeneratorShape, random_objective_program
from elps.objective import (
    classical_satisfies,
    compile_objective,
    objective_reduct,
    objective_solutions,
    objective_split,
    simplify_top,
    stable_models,
    stable_models_ref,
)
from elps.semantics import SemanticsId
from elps.syntax import (
    BOT,
    TOP,
    Atom,
    ObjLit,
    Program,
    Rule,
    const_truth,
    load_program,
    parse_atom,
    parse_program,
    parse_rule,
)

PI1 = parse_program(
    """
    a :- not b.
    b :- not a.
    c | d :- not a.
    d :- a, not b.
    """
)

A, B, C, D = (Atom(x) for x in "abcd")


def sm(program, **kw):
    return {frozenset(i) for i in stable_models(program, **kw)}


def interps(*texts):
    return {frozenset(parse_atom(t) for t in text.split()) for text in texts}


def test_classical_satisfies_examples():
    rule = parse_rule("a :- not b.")
    assert classical_satisfies(frozenset([A]), rule)
    assert classical_satisfies(frozenset([B]), rule)  # body false
    assert not classical_satisfies(frozenset(), parse_rule("a | b."))


def test_classical_satisfies_rejects_subjective():
    with pytest.raises(NotObjectiveError):
        classical_satisfies(frozenset(), parse_rule("a :- K b."))


def test_classical_satisfies_rejects_what_is_not_a_construct():
    with pytest.raises(TypeError, match="^unsupported construct 42$"):
        classical_satisfies(frozenset(), 42)


def test_objective_reduct_rejects_subjective():
    with pytest.raises(NotObjectiveError, match="^subjective literal K b in objective reduct$"):
        objective_reduct(parse_program("a :- K b."), frozenset())


def test_classical_double_negation():
    lit = parse_rule(":- not not a.").body[0]
    assert classical_satisfies(frozenset([A]), lit)
    assert not classical_satisfies(frozenset(), lit)


def test_objective_reduct_pi1():
    reduct = objective_reduct(PI1, frozenset([A]))
    assert parse_rule("a :- ⊤.") in reduct.rules
    assert parse_rule("b :- ⊥.") in reduct.rules
    assert parse_rule("c | d :- ⊥.") in reduct.rules
    assert parse_rule("d :- a, ⊤.") in reduct.rules


def test_objective_reduct_identity_on_positive_programs():
    program = parse_program("a :- b. c | d :- a.")
    assert objective_reduct(program, frozenset([A])) == program


def test_simplify_top_matches_worked_example():
    split = objective_split(PI1, {A, B})
    top_a = simplify_top(split.top, split.U, frozenset([A]))
    assert top_a.rules == (parse_rule("c | d :- not ⊤."), parse_rule("d :- ⊤, not ⊥."))
    top_b = simplify_top(split.top, split.U, frozenset([B]))
    assert top_b.rules == (parse_rule("c | d :- not ⊥."), parse_rule("d :- ⊥, not ⊤."))


def test_simplify_top_refuses_a_subjective_literal_and_a_rule_that_heads_u():
    with pytest.raises(NotObjectiveError, match="subjective literal K a in objective top"):
        simplify_top(parse_program("c :- K a."), {A}, frozenset())
    heads_u = parse_rule("a :- c.")
    with pytest.raises(NotASplittingSet) as exc:
        simplify_top(Program.of([heads_u]), {A}, frozenset())
    assert tuple(exc.value.violators) == (heads_u,)


def test_stable_models_pi1():
    assert sm(PI1) == interps("a d", "b c", "b d")


def test_stable_models_college_bottom():
    bottom = load_program(
        """
        eligible(mike) :- high(mike).
        eligible(mike) :- minority(mike), fair(mike).
        -eligible(mike) :- -fair(mike), -high(mike).
        fair(mike) | high(mike).
        """
    )
    assert sm(bottom) == interps("high(mike) eligible(mike)", "fair(mike)")


def test_stable_models_empty_program():
    assert sm(Program.of([])) == {frozenset()}


def test_stable_models_capacity(monkeypatch):
    monkeypatch.setattr(objective, "MAX_ATOMS", 3)
    program = parse_program("a :- b, c, d, e.")
    with pytest.raises(CapacityError, match="5 atoms exceed the exhaustive-search cap of 3"):
        stable_models(program)


def test_stable_models_searches_on_every_call_outside_a_memo(searches):
    for _ in range(2):
        stable_models(PI1)
    assert list(searches.values()) == [2]


def test_a_memo_is_not_used_by_another_thread(searches):
    with engine.solve_memo():
        stable_models(PI1)
        worker = threading.Thread(target=stable_models, args=(PI1,))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        stable_models(PI1)  # from this thread's memo
    assert list(searches.values()) == [2]


def test_refused_programs_raise_on_every_call_in_a_memo(searches, monkeypatch):
    """The atom cap and the objective check come before the memo, so a
    refused program is refused again and nothing is stored for it."""
    monkeypatch.setattr(objective, "MAX_ATOMS", 4)  # past too_big's 5 atoms, not subjective's 4
    too_big = parse_program("a :- b, c, d, e.")
    subjective = parse_program("c :- not d.\na :- K b.")
    with engine.solve_memo():
        for _ in range(2):
            with pytest.raises(CapacityError, match="5 atoms exceed the exhaustive-search cap of 4"):
                stable_models(too_big)
            with pytest.raises(NotObjectiveError):
                stable_models(subjective)
        assert engine._memo.get() == {}
    assert not searches


def _same_compiled_variant(rng, program):
    """Other rules with the compiled form of `program`, and which change
    made them: a body literal repeated in place, or a rule that ⊥ kills."""
    rules = list(program.rules)
    i = rng.randrange(len(rules))
    head, body = rules[i].head, rules[i].body
    if body and rng.random() < 0.5:
        j = rng.randrange(len(body))
        rules[i] = Rule(head, body[: j + 1] + body[j:])
        return Program.of(rules), "repeated literal"
    rules.append(Rule(head, (*body, ObjLit(BOT))))
    return Program.of(rules), "dead rule"


def test_memo_answers_an_equally_compiled_program_without_a_search(searches):
    """In one run memo, random programs of the matrix's 4-atom shape and a
    variant of each with the same compiled form all get the stable models
    of the oracle on their own rules; the variant is answered from the
    memo."""
    rng = random.Random(23)
    shape = engine.REGISTRY[SemanticsId.G91].shape
    kinds = Counter()
    with engine.solve_memo():
        for _ in range(80):
            program = random_objective_program(rng, shape)
            variant, kind = _same_compiled_variant(rng, program)
            kinds[kind] += 1
            assert variant != program and compile_objective(variant) == compile_objective(program)
            assert stable_models(program) == stable_models_ref(program), str(program)
            searched = sum(searches.values())
            assert stable_models(variant) == stable_models_ref(variant), str(variant)
            assert sum(searches.values()) == searched, str(variant)
    assert max(searches.values()) == 1
    assert min(kinds.values()) > 20, kinds


def test_objective_split_pi1():
    split = objective_split(PI1, {A, B})
    assert set(split.bottom.rules) == {parse_rule("a :- not b."), parse_rule("b :- not a.")}
    assert set(split.top.rules) == {parse_rule("c | d :- not a."), parse_rule("d :- a, not b.")}


def test_objective_split_whole_universe():
    split = objective_split(PI1, PI1.atoms)
    assert split.bottom == PI1
    assert split.top.rules == ()


def test_objective_split_invalid_sets():
    with pytest.raises(NotASplittingSet) as exc:
        objective_split(PI1, {A})
    assert parse_rule("a :- not b.") in exc.value.violators
    # b :- not a. satisfies the head condition, so it is not a violator
    assert parse_rule("b :- not a.") not in exc.value.violators

    with pytest.raises(NotASplittingSet) as exc:
        objective_split(PI1, {D})
    assert parse_rule("d :- a, not b.") in exc.value.violators
    assert parse_rule("c | d :- not a.") in exc.value.violators


def test_objective_solutions_pi1():
    sols = objective_solutions(PI1, {A, B})
    assert sols == {
        (frozenset([A]), frozenset([D])),
        (frozenset([B]), frozenset([C])),
        (frozenset([B]), frozenset([D])),
    }
    assert {ib | it for ib, it in sols} == sm(PI1)


def test_objective_solutions_empty_bottom():
    program = parse_program("a :- not a. b :- a.")
    assert objective_solutions(program, {A}) == frozenset()


def test_constraint_placement_indifference():
    program = parse_program("a :- not b. b :- not a. :- b. c :- not a.")
    u = {A, B}
    bottom_sols = objective_solutions(program, u, placement="bottom")
    top_sols = objective_solutions(program, u, placement="top")
    assert bottom_sols == top_sols
    split_top = objective_split(program, u, placement="top")
    assert parse_rule(":- b.") in split_top.top.rules


def _every_subset(atoms):
    atoms = sorted(atoms)
    for mask in range(1 << len(atoms)):
        yield frozenset(a for i, a in enumerate(atoms) if mask & (1 << i))


def test_splitting_theorem_randomized():
    rng = random.Random(20)
    shape = GeneratorShape(n_atoms=5, max_rules=6)
    for _ in range(120):
        program = random_objective_program(rng, shape)
        expected = sm(program)
        for U in _every_subset(program.atoms):
            try:
                sols = objective_solutions(program, U)
            except NotASplittingSet:
                continue
            assert {ib | it for ib, it in sols} == expected, (str(program), sorted(map(str, U)))
            # each stable model yields the unique solution (I∩U, I\U)
            for model in expected:
                assert (model & U, model - U) in sols


def test_supraclassicality_randomized():
    rng = random.Random(21)
    shape = GeneratorShape(n_atoms=5, max_rules=6)
    for _ in range(150):
        program = random_objective_program(rng, shape)
        for model in stable_models(program):
            assert classical_satisfies(model, program)


def test_two_oracle_paths_agree():
    rng = random.Random(22)
    shape = GeneratorShape(n_atoms=4, max_rules=5)
    for _ in range(60):
        program = random_objective_program(rng, shape)
        assert stable_models(program) == stable_models_ref(program), str(program)
    # truth constants under 0-2 negations (a false one kills its rule, a
    # true one such as `not ⊥` drops out) and constraints
    seen = {"dead": 0, "not ⊥": 0, "constraint": 0}
    for _ in range(300):
        shape = GeneratorShape(n_atoms=rng.randint(1, 5), max_rules=4, constraint_prob=0.3)
        rules = []
        for rule in random_objective_program(rng, shape).rules:
            body = list(rule.body)
            for _ in range(rng.randint(0, 2)):
                body.insert(rng.randint(0, len(body)), ObjLit(rng.choice((TOP, BOT)), rng.randint(0, 2)))
            rules.append(Rule(rule.head, tuple(body)))
        program = Program.of(rules)
        lits = [l for r in program.rules for l in r.body]
        seen["dead"] += any(const_truth(l) is False for l in lits)
        seen["not ⊥"] += ObjLit(BOT, 1) in lits
        seen["constraint"] += any(not r.head for r in program.rules)
        assert stable_models(program) == stable_models_ref(program), str(program)
    assert min(seen.values()) > 30, seen


@pytest.mark.parametrize("text", ["a :- K b.", "a :- M b.", "a :- not K b.", "a :- K not b.", "a :- not M not b."])
def test_stable_models_rejects_subjective_literals(text):
    # each literal lands in a different subjective mask of `compile_rule`
    program = parse_program("c :- not d.\n" + text)
    with pytest.raises(NotObjectiveError, match=re.escape(str(program.rules[1].body[0]))):
        stable_models(program)
