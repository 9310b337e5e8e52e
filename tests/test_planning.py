import pytest

from elps.engine import compute_world_views
from elps.errors import ElpError
from elps.planning import (
    choice_rules,
    conformant_check_program,
    generate_conformant_world_views,
    generate_define_test_program,
    goal_constraint,
    is_conformant_plan,
    plan_of_world_view,
    wrap_action_atoms,
)
from elps.semantics import SemanticsId
from elps.syntax import parse_atom, parse_program, parse_rule
from helpers import wv_of

LIGHT = parse_atom("light")
T1, T2 = parse_atom("toggle(l1)"), parse_atom("toggle(l2)")


W0_PRIME = wv_of(
    "toggle(l1) plugged(l1) plugged(l2) light",
    "toggle(l1) plugged(l1) -plugged(l2) light",
)


def test_goal_constraint_shape():
    assert goal_constraint(LIGHT) == parse_rule(":- not K light.")


def test_choice_rules_shape():
    assert choice_rules([T1]) == (parse_rule("toggle(l1) :- not K not toggle(l1)."),)


def test_wrap_action_atoms():
    domain = parse_program("light :- toggle(l1), plugged(l1). :- toggle(l1), toggle(l2).")
    wrapped = wrap_action_atoms(domain, [T1, T2])
    assert parse_rule("light :- K toggle(l1), plugged(l1).") in wrapped.rules
    assert parse_rule(":- K toggle(l1), K toggle(l2).") in wrapped.rules


def test_conformant_check_accepts_toggle_l1(corpus):
    ok, wvs = is_conformant_plan(corpus["lamps"], [T1], LIGHT)
    assert ok
    assert wvs == {W0_PRIME}
    # light is known in the single world view
    (wv,) = wvs
    assert all(LIGHT in i for i in wv.interps)


def test_conformant_check_rejects_toggle_l2(corpus):
    ok, wvs = is_conformant_plan(corpus["lamps"], [T2], LIGHT)
    assert not ok and not wvs


def test_conformant_check_program_contains_constraint(corpus):
    program = conformant_check_program(corpus["lamps"], [T1], LIGHT)
    assert parse_rule("toggle(l1).") in program.rules
    assert parse_rule(":- not K light.") in program.rules


def test_generate_define_test_surviving_world_view(corpus):
    surviving = generate_conformant_world_views(corpus["lamps"], [T1, T2], LIGHT)
    assert surviving == {W0_PRIME}
    (wv,) = surviving
    assert plan_of_world_view(wv, [T1, T2]) == frozenset([T1])


def test_plan_of_world_view_rejects_actions_that_differ_across_belief_sets():
    with pytest.raises(ElpError, match="actions differ"):
        plan_of_world_view(wv_of("toggle(l1) light", "toggle(l2)"), [T1, T2])


def test_generate_define_test_under_c19(corpus):
    surviving = generate_conformant_world_views(
        corpus["lamps"], [T1, T2], LIGHT, semantics=SemanticsId.C19
    )
    assert surviving == {W0_PRIME}


def test_generate_program_bottom_has_four_world_views(corpus):
    # the choice layer alone offers every action subset as a world view
    program = generate_define_test_program(corpus["lamps"], [T1, T2], LIGHT)
    choice_layer = parse_program(
        "toggle(l1) :- not K not toggle(l1). toggle(l2) :- not K not toggle(l2)."
    )
    wvs = compute_world_views(choice_layer, SemanticsId.G91)
    assert wvs == {wv_of(""), wv_of("toggle(l1)"), wv_of("toggle(l2)"),
                   wv_of("toggle(l1) toggle(l2)")}
    assert parse_rule(":- not K light.") in program.rules
