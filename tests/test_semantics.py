import random

import pytest

from elps import semantics as semantics_module
from elps.config import SolverLimits
from elps.engine import brute_force_world_views, compute_world_views
from elps.errors import CapacityError, UnsupportedMLiteral
from elps.generators import GeneratorShape, random_epistemic_program, random_objective_program
from elps.modal import WorldView, is_s5_model, world_views_to_json
from elps.objective import stable_models
from elps.semantics import (
    SemanticsId,
    s17_world_views,
    semantics_reduct,
    subjective_cores,
    world_views,
)
from elps.syntax import eliminate_m, parse_atom, parse_program, parse_rule

CE1A = parse_program("a | b. c :- K a.")
CE1B = parse_program("a | b. c :- K a. :- not c.")
CE2 = parse_program("a | b. :- not K a.")
KA = parse_program("a :- K a.")


def wv_of(*texts):
    return WorldView.of([parse_atom(t) for t in text.split()] for text in texts)


def views(wvs):
    return world_views_to_json(wvs)


def guess_for(program, **values):
    cores = {str(core): core for core in subjective_cores(program)}
    return {cores[text]: value for text, value in
            {k.replace("_", " "): v for k, v in values.items()}.items()}


def test_g11_reduct_examples():
    guess = {subjective_cores(CE1B)[0]: True}
    reduct = semantics_reduct(CE1B, guess, SemanticsId.G11)
    assert set(reduct.rules) == {
        parse_rule("a | b."),
        parse_rule("c :- a."),
        parse_rule(":- not c."),
    }
    reduct4 = semantics_reduct(CE1A, {subjective_cores(CE1A)[0]: True}, SemanticsId.G11)
    assert set(reduct4.rules) == {parse_rule("a | b."), parse_rule("c :- a.")}


def test_g11_removes_true_negated_k():
    program = parse_program(":- not K a. b :- not K a.")
    core = subjective_cores(program)[0]
    reduct = semantics_reduct(program, {core: True}, SemanticsId.G11)
    # `not K a` is unsatisfied when K a is true: each rule gets a ⊥ body
    assert set(reduct.rules) == {parse_rule(":- ⊥."), parse_rule("b :- ⊥.")}
    assert stable_models(reduct) == {frozenset()}


def test_g11_constraint_on_true_k_is_satisfied():
    program = parse_program("d. :- K d, not K d.")
    assert compute_world_views(program, SemanticsId.G11) == {wv_of("d")}
    assert brute_force_world_views(program, SemanticsId.G11) == {wv_of("d")}


def test_k15_reduct_keeps_outer_negation():
    program = parse_program(":- not K a. b :- K a.")
    core = subjective_cores(program)[0]
    assert set(semantics_reduct(program, {core: True}, SemanticsId.K15).rules) == {
        parse_rule(":- not a."),
        parse_rule("b :- a."),
    }
    assert set(semantics_reduct(program, {core: False}, SemanticsId.K15).rules) == {
        parse_rule(":- not ⊥."),
        parse_rule("b :- ⊥."),
    }


def test_g91_reduct_all_false_guess():
    program = parse_program("x :- K a, not K b, M c, not M a.")
    guess = {core: False for core in subjective_cores(program)}
    reduct = semantics_reduct(program, guess, SemanticsId.G91)
    assert reduct.rules == (parse_rule("x :- ⊥, not ⊥, ⊥, not ⊥."),)


def test_m_literal_rejected_by_g11_k15_s17():
    program = parse_program("a :- M b.")
    core = subjective_cores(program)[0]
    for semantics in (SemanticsId.G11, SemanticsId.K15):
        with pytest.raises(UnsupportedMLiteral):
            semantics_reduct(program, {core: True}, semantics)
        with pytest.raises(UnsupportedMLiteral):
            world_views(program, semantics)
    with pytest.raises(UnsupportedMLiteral):
        s17_world_views(program)
    # after elimination the K-only pipeline accepts it
    assert world_views(eliminate_m(program), SemanticsId.K15) is not None


def test_world_views_checks_the_program_once(monkeypatch):
    # the M literal sits in the last rule, so the scan must reach it
    program = parse_program("a :- K b. b :- not K c. c :- K a. d :- M a.")
    guess = {core: True for core in subjective_cores(program)}
    with pytest.raises(UnsupportedMLiteral):
        semantics_reduct(program, guess, SemanticsId.G11)
    with pytest.raises(UnsupportedMLiteral):
        world_views(program, SemanticsId.G11)
    with pytest.raises(ValueError):
        semantics_reduct(program, guess, SemanticsId.F15)
    # one scan per world_views call, not one per guess
    scans = []
    original = semantics_module.require_m_free
    monkeypatch.setattr(
        semantics_module, "require_m_free", lambda *args: scans.append(args) or original(*args)
    )
    k_only = eliminate_m(program)
    assert len(subjective_cores(k_only)) >= 3
    world_views(k_only, SemanticsId.G11)
    assert len(scans) == 1


def test_world_views_counterexample_fixtures():
    assert world_views(CE1A, SemanticsId.G91) == {wv_of("a", "b")}
    assert world_views(CE1B, SemanticsId.G91) == frozenset()
    assert world_views(CE1B, SemanticsId.G11) == {wv_of("a c")}
    assert world_views(KA, SemanticsId.G91) == {wv_of(""), wv_of("a")}
    assert world_views(CE2, SemanticsId.K15) == {wv_of("a")}
    assert world_views(CE2, SemanticsId.G91) == frozenset()


def test_s17_examples():
    assert s17_world_views(CE2) == {wv_of("a")}
    # unique K15 world view: the maximality filter is vacuous
    assert s17_world_views(CE1B) == world_views(CE1B, SemanticsId.K15) == {wv_of("a c")}
    # no K15 world view at all
    no_wv = parse_program("a :- not a.")
    assert s17_world_views(no_wv) == frozenset()


def test_s17_maximality_filters():
    # K not a keeps both world views under K15; S17 keeps the one satisfying
    # more epistemic negations
    program = parse_program("a :- K a.")
    k15 = world_views(program, SemanticsId.K15)
    assert k15 == {wv_of("")}
    assert s17_world_views(program) == {wv_of("")}


def test_brute_force_matches_fixtures():
    for program in (CE1A, CE1B, CE2, KA):
        for semantics in (SemanticsId.G91, SemanticsId.G11, SemanticsId.K15, SemanticsId.S17):
            fast = (
                s17_world_views(program)
                if semantics is SemanticsId.S17
                else world_views(program, semantics)
            )
            assert fast == brute_force_world_views(program, semantics), (str(program), semantics)


def test_brute_force_capacity():
    program = parse_program("a :- b, c, d, e.")
    with pytest.raises(CapacityError):
        brute_force_world_views(program, SemanticsId.G91)


def test_guess_capacity():
    program = parse_program("x :- K a, K b, K c.")
    with pytest.raises(CapacityError):
        world_views(program, SemanticsId.G91, SolverLimits(max_guesses=4))


def test_oracle_equivalence_randomized():
    rng = random.Random(41)
    shape = GeneratorShape(n_atoms=3, max_rules=4, subjective_prob=0.5)
    for _ in range(60):
        program = random_epistemic_program(rng, shape)
        for semantics in (SemanticsId.G91, SemanticsId.G11, SemanticsId.K15):
            assert world_views(program, semantics) == brute_force_world_views(program, semantics), (
                str(program),
                semantics,
            )
        assert s17_world_views(program) == brute_force_world_views(program, SemanticsId.S17)


def test_g91_brute_force_handles_m():
    rng = random.Random(42)
    shape = GeneratorShape(n_atoms=3, max_rules=4, subjective_prob=0.5, m_prob=0.5)
    for _ in range(40):
        program = random_epistemic_program(rng, shape)
        assert world_views(program, SemanticsId.G91) == brute_force_world_views(
            program, SemanticsId.G91
        ), str(program)


def test_g11_equals_k15_on_positive_subjective_programs():
    rng = random.Random(43)
    shape = GeneratorShape(n_atoms=4, max_rules=5, subjective_prob=0.5)
    checked = 0
    for _ in range(80):
        program = random_epistemic_program(rng, shape)
        positive_only = all(not l.neg for r in program.rules for l in r.body_sub)
        if not positive_only:
            continue
        checked += 1
        assert world_views(program, SemanticsId.G11) == world_views(program, SemanticsId.K15)
    assert checked >= 10


ALL_SEMANTICS = tuple(SemanticsId)


def test_supra_asp_randomized():
    rng = random.Random(44)
    for _ in range(40):
        program = random_objective_program(rng, GeneratorShape(n_atoms=3, max_rules=4))
        models = stable_models(program)
        expected = frozenset([WorldView(models)]) if models else frozenset()
        for semantics in ALL_SEMANTICS:
            assert compute_world_views(program, semantics) == expected, (str(program), semantics)


def test_supra_s5_randomized():
    rng = random.Random(45)
    shape = GeneratorShape(n_atoms=3, max_rules=4, subjective_prob=0.5)
    for _ in range(40):
        program = random_epistemic_program(rng, shape)
        for semantics in ALL_SEMANTICS:
            for wv in compute_world_views(program, semantics):
                assert is_s5_model(wv, program), (str(program), semantics, wv.as_lists())


def test_world_views_to_json_sorted():
    wvs = {wv_of("b", "a"), wv_of("")}
    assert views(wvs) == [[[]], [["a"], ["b"]]]


def test_brute_force_objective_fact():
    program = parse_program("a.")
    assert brute_force_world_views(program, SemanticsId.G91) == {wv_of("a")}
    for semantics in (SemanticsId.G11, SemanticsId.K15, SemanticsId.S17, SemanticsId.C19):
        assert brute_force_world_views(program, semantics) == {wv_of("a")}
