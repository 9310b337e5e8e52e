"""Epistemic here-and-there machinery: equilibrium models and the F15 world
views.

An EHT interpretation pairs a world view ("there") with a function h mapping
each interpretation to a subset of itself ("here").  This module has one
literal evaluator, the "here" reading: a positive atom is read from h at the
point, and K/M over a positive inner literal read h at every point of the
world view.  Everything else reads the total ("there") valuation and is
delegated to `modal.modal_satisfies`: truth constants, default-negated
literals, `not K`/`not M`, and K/M over a negated inner literal.  A rule holds
at a point when its body fails there or its head meets h at the point.  With
h the identity the reading is modal satisfaction, so every total check
(total models, condition (1) of `models_star`) calls `modal_satisfies`
itself.  The definitional API (an EHT interpretation object, satisfaction of
a construct at a point, EHT models) lives in `tests/test_eht.py`, where it is
the reference the evaluator here is tested against.

Equilibrium models are total models admitting no smaller "here" model; F15
world views are the equilibrium models that survive the ⊂ / ≤ comparison.
The ordering ≤ quantifies over interpretations that belong to *some*
equilibrium model.

Countermodels (`equilibrium_countermodel`, and `models_star` with X ⊊ wv)
are found by a depth-first search over the free points in `interp_key`
order, trying each point's "here" values in `subsets` order, so the first
one found is the first of the full product of those choices.  A point not
yet decided reads as ∅, and a branch is dropped as soon as a rule fails at a
decided point.  That is sound because a rule body is monotone in h: only
its "here" literals read h, and the rest read the total valuation.  A body
true with ∅ at the undecided points stays true however they are decided,
and the head at a decided point is fixed, so no completion of the branch
repairs the rule.

A rule with no subjective literal holds or fails at a point in the total
reading whatever the world view is, so `total_model_countermodels` keeps the
interpretations that satisfy those rules once and builds candidate world
views from them alone; only the rules with a subjective literal are checked
per candidate.  The kept candidates come in the same order as before.
"""

from __future__ import annotations

from .config import DEFAULT_LIMITS, SolverLimits
from .modal import WorldView, candidate_world_views, modal_satisfies
from .objective import Interpretation
from .syntax import (
    ObjLit,
    Program,
    Rule,
    SubjLit,
    atom_key,
    capped_atoms,
    interp_key,
    is_objective,
    subsets,
)


def _lit_truth(wv: WorldView, h, point: Interpretation, lit) -> bool:
    """A body literal at `point` in the "here" reading."""
    if isinstance(lit, ObjLit):
        if lit.negs == 0 and lit.atom is not None:
            return lit.base in h[point]
    elif not lit.neg and lit.inner.negs == 0:
        quantifier = all if lit.modality == "K" else any
        return quantifier(lit.atom in h[i] for i in wv.interps)
    return modal_satisfies(wv, point, lit)


def _rule_at_point(wv: WorldView, h, point: Interpretation, rule: Rule) -> bool:
    if all(_lit_truth(wv, h, point, l) for l in rule.body):
        return any(a in h[point] for a in rule.head)
    return True


def _countermodel(program: Program, wv: WorldView, free):
    """The first non-total h, total outside `free`, that models the program at
    all points, or None; the pruned search of the module docstring."""
    free = sorted(free, key=interp_key)
    h = {i: i for i in wv.interps if i not in free}
    fixed = list(h)
    h.update((i, frozenset()) for i in free)
    # rules whose truth at one point can change with h at another point
    modal = [r for r in program.rules if any(isinstance(l, SubjLit) and not l.neg for l in r.body)]

    def holds(points, rules) -> bool:
        return all(_rule_at_point(wv, h, p, r) for p in points for r in rules)

    def search(k: int, non_total: bool) -> bool:
        if k == len(free):
            return non_total
        point, decided = free[k], fixed + free[:k]
        for here in subsets(sorted(point, key=atom_key)):
            h[point] = here
            if holds((point,), program.rules) and holds(decided, modal):
                if search(k + 1, non_total or here != point):
                    return True
        h[point] = frozenset()
        return False

    return dict(h) if holds(fixed, program.rules) and search(0, False) else None


def equilibrium_countermodel(program: Program, wv: WorldView):
    """A non-total h that models the program at all points, or None."""
    return _countermodel(program, wv, wv.interps)


def total_model_countermodels(
    program: Program,
    limits: SolverLimits = DEFAULT_LIMITS,
) -> list[tuple[WorldView, dict | None]]:
    """Every candidate world view that is a total EHT model, in enumeration
    order, paired with its equilibrium countermodel (None for an equilibrium)."""
    atoms = capped_atoms(program, limits.f15_max_atoms, "EHT")
    objective = [r for r in program.rules if is_objective(r)]
    modal = [r for r in program.rules if not is_objective(r)]
    # an objective rule never reads the world view
    points = [i for i in subsets(atoms) if all(modal_satisfies(None, i, r) for r in objective)]
    return [
        (wv, equilibrium_countermodel(program, wv))
        for wv in candidate_world_views(points)
        if all(modal_satisfies(wv, i, r) for i in wv.interps for r in modal)
    ]


def equilibrium_eht_models(
    program: Program,
    limits: SolverLimits = DEFAULT_LIMITS,
) -> frozenset[WorldView]:
    """Total EHT models with no strictly smaller "here" model."""
    return frozenset(wv for wv, h in total_model_countermodels(program, limits) if h is None)


def models_star(wv: WorldView, X, program: Program) -> bool:
    """The auxiliary satisfaction relation behind the F15 ordering.

    (1) the program holds at every point of X in the total reading;
    (2) any EHT-model (all points) that is total outside X must be total.

    With X = wv this is exactly the equilibrium condition.
    """
    X = frozenset(frozenset(i) for i in X)
    if not X <= wv.interps:
        raise ValueError("X must be a subset of the world view")
    if not all(modal_satisfies(wv, i, program) for i in X):
        return False
    return _countermodel(program, wv, X) is None


def f15_world_views(program: Program, limits: SolverLimits = DEFAULT_LIMITS) -> frozenset[WorldView]:
    """Equilibrium models not dominated by a ⊃-larger or ≤-greater one."""
    equilibria = sorted(equilibrium_eht_models(program, limits), key=str)
    if not equilibria:
        return frozenset()
    domain = sorted({i for wv in equilibria for i in wv.interps}, key=interp_key)
    star_cache: dict[tuple, bool] = {}

    def star(interps: frozenset, X: frozenset) -> bool:
        key = (interps, X)
        if key not in star_cache:
            star_cache[key] = models_star(WorldView(interps), X, program)
        return star_cache[key]

    def less_equal(w1: WorldView, w2: WorldView) -> bool:
        for i in domain:
            if star(w1.interps | {i}, w1.interps) and not star(w2.interps | {i}, w2.interps):
                return False
        return True

    def dominates(other: WorldView, wv: WorldView) -> bool:
        return wv.interps < other.interps or (less_equal(wv, other) and not less_equal(other, wv))

    return frozenset(
        wv for wv in equilibria if not any(dominates(o, wv) for o in equilibria if o != wv)
    )
