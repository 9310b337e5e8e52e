"""Conformant planning on top of world views.

A plan is conformant iff the domain program extended with the action facts
and the subjective goal constraint `:- not K goal.` still has a world view:
the goal then holds in every belief set.  The generate-define-test mode adds
a choice rule per action (`a :- not K not a.`), wraps plain action atoms in
domain rule bodies with K (so the action layer splits off), and keeps the
goal constraint as the test section.
"""

from __future__ import annotations

from .engine import compute_world_views
from .errors import ElpError
from .modal import WorldView
from .semantics import SemanticsId
from .syntax import Atom, ObjLit, Program, Rule, SubjLit


def goal_constraint(goal: Atom) -> Rule:
    return Rule(frozenset(), (SubjLit("K", ObjLit(goal), neg=True),))


def choice_rules(actions) -> tuple[Rule, ...]:
    return tuple(
        Rule(frozenset([a]), (SubjLit("K", ObjLit(a, 1), neg=True),)) for a in sorted(actions)
    )


def wrap_action_atoms(program: Program, actions) -> Program:
    """Replace plain body occurrences of action atoms by K-literals."""
    actions = frozenset(actions)

    def wrap(lit):
        if isinstance(lit, ObjLit) and lit.negs == 0 and lit.atom in actions:
            return SubjLit("K", lit)
        return lit

    rules = tuple(Rule(r.head, tuple(wrap(l) for l in r.body)) for r in program.rules)
    return Program.of(rules)


def conformant_check_program(domain: Program, plan, goal: Atom) -> Program:
    facts = tuple(Rule(frozenset([a]), ()) for a in sorted(plan))
    return Program.of(domain.rules + facts + (goal_constraint(goal),))


def is_conformant_plan(
    domain: Program,
    plan,
    goal: Atom,
    semantics: SemanticsId = SemanticsId.G91,
) -> tuple[bool, frozenset[WorldView]]:
    wvs = compute_world_views(conformant_check_program(domain, plan, goal), semantics)
    return bool(wvs), wvs


def generate_define_test_program(domain: Program, actions, goal: Atom) -> Program:
    actions = frozenset(actions)
    wrapped = wrap_action_atoms(domain, actions)
    rules = choice_rules(actions) + wrapped.rules + (goal_constraint(goal),)
    return Program.of(rules)


def generate_conformant_world_views(
    domain: Program,
    actions,
    goal: Atom,
    semantics: SemanticsId = SemanticsId.G91,
) -> frozenset[WorldView]:
    """World views surviving the goal constraint; each is a conformant plan."""
    return compute_world_views(generate_define_test_program(domain, actions, goal), semantics)


def plan_of_world_view(wv: WorldView, actions) -> frozenset[Atom]:
    """Action atoms known in the world view (identical across belief sets)."""
    actions = frozenset(actions)
    plans = {frozenset(i & actions) for i in wv.interps}
    if len(plans) != 1:
        raise ElpError(f"actions differ across the belief sets of the world view {wv}")
    return next(iter(plans))
