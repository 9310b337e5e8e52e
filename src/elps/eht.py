"""Epistemic here-and-there machinery: EHT models, equilibrium selection and
the F15 world views.

An EHT interpretation pairs a world view ("there") with a function h mapping
each interpretation to a subset of itself ("here").  Atoms are read from
h(I); a default-negated literal is always evaluated in the total variant.
Equilibrium models are total models admitting no smaller "here" model; F15
world views are the equilibrium models that survive the ⊂ / ≤ comparison.

The ordering ≤ quantifies over interpretations that belong to *some*
equilibrium model.

Countermodels (`equilibrium_countermodel`, and `models_star` with X ⊊ wv)
are found by a depth-first search over the free points in `interp_key`
order, trying each point's "here" values in `subsets` order, so the first
one found is the first of the full product of those choices.  A point not
yet decided reads as ∅, and a branch is dropped as soon as a rule fails at a
decided point.  That is sound because a rule body is monotone in h: atoms
and K/M over a positive inner literal read "here" values, while negated
literals, `not K`/`not M` and K/M over a negated inner literal read the
total "there" valuation.  A body true with ∅ at the undecided points stays
true however they are decided, and the head at a decided point is fixed, so
no completion of the branch repairs the rule.

A rule with no subjective literal holds or fails at a point in the total
variant whatever the world view is, so `total_model_countermodels` keeps the
interpretations that satisfy those rules once and builds candidate world
views from them alone; only the rules with a subjective literal are checked
per candidate.  The kept candidates come in the same order as before.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .config import DEFAULT_LIMITS, SolverLimits
from .modal import WorldView, candidate_world_views
from .objective import Interpretation
from .syntax import (
    Atom,
    ObjLit,
    Program,
    Rule,
    SubjLit,
    atom_key,
    capped_atoms,
    const_truth,
    interp_key,
    is_objective,
    subsets,
)


class EHTInterpretation:
    """A world view plus a "here" map h with h(I) ⊆ I for every I."""

    def __init__(self, wv: WorldView, h: Mapping[Interpretation, Iterable[Atom]]):
        self.wv = wv
        self.h = {i: frozenset(h[i]) for i in wv.interps}
        for i, here in self.h.items():
            if not here <= i:
                raise ValueError(f"h({set(i)}) = {set(here)} is not a subset")

    @classmethod
    def total(cls, wv: WorldView) -> "EHTInterpretation":
        return cls(wv, {i: i for i in wv.interps})


def _lit_truth(wv: WorldView, h, point: Interpretation, lit, total: bool) -> bool:
    """h is ignored when total=True (the id variant)."""
    if isinstance(lit, ObjLit):
        value = const_truth(lit)
        if value is not None:
            return value
        if lit.negs == 0:
            return lit.base in (point if total else h[point])
        # a default-negated literal reads the total ("there") valuation
        value = lit.base in point
        return value if lit.negs == 2 else not value
    # subjective literal
    if lit.neg:
        return not _lit_truth(wv, h, point, lit.core(), total=True)
    inner = lit.inner
    if lit.modality == "K":
        return all(_lit_truth(wv, h, i, inner, total) for i in wv.interps)
    return any(_lit_truth(wv, h, i, inner, total) for i in wv.interps)


def eht_satisfies(eht: EHTInterpretation, point: Interpretation, construct) -> bool:
    point = frozenset(point)
    if point not in eht.wv.interps:
        raise ValueError(f"point {set(point)} is not in the world view")
    if isinstance(construct, (ObjLit, SubjLit)):
        return _lit_truth(eht.wv, eht.h, point, construct, total=False)
    if isinstance(construct, Rule):
        return _rule_at_point(eht.wv, eht.h, point, construct, total=False)
    raise TypeError(f"unsupported construct {construct!r}")


def _rule_at_point(wv, h, point, rule: Rule, total: bool) -> bool:
    if all(_lit_truth(wv, h, point, l, total) for l in rule.body):
        here = point if total else h[point]
        return any(a in here for a in rule.head)
    return True


def _model_at_point(wv, h, point, program: Program, total: bool) -> bool:
    return all(_rule_at_point(wv, h, point, r, total) for r in program.rules)


def is_eht_model(eht: EHTInterpretation, program: Program) -> bool:
    return all(_model_at_point(eht.wv, eht.h, i, program, total=False) for i in eht.wv.interps)


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
        return all(_rule_at_point(wv, h, p, r, total=False) for p in points for r in rules)

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
    points = [
        i
        for i in subsets(atoms)
        if all(_rule_at_point(None, None, i, r, total=True) for r in objective)
    ]
    return [
        (wv, equilibrium_countermodel(program, wv))
        for wv in candidate_world_views(points)
        if all(_rule_at_point(wv, None, i, r, total=True) for i in wv.interps for r in modal)
    ]


def equilibrium_eht_models(
    program: Program,
    limits: SolverLimits = DEFAULT_LIMITS,
) -> frozenset[WorldView]:
    """Total EHT models with no strictly smaller "here" model."""
    return frozenset(wv for wv, h in total_model_countermodels(program, limits) if h is None)


def models_star(wv: WorldView, X, program: Program) -> bool:
    """The auxiliary satisfaction relation behind the F15 ordering.

    (1) the program holds at every point of X in the total variant;
    (2) any EHT-model (all points) that is total outside X must be total.

    With X = wv this is exactly the equilibrium condition.
    """
    X = frozenset(frozenset(i) for i in X)
    if not X <= wv.interps:
        raise ValueError("X must be a subset of the world view")
    if not all(_model_at_point(wv, None, i, program, total=True) for i in X):
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
