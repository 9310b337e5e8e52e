"""Epistemic here-and-there machinery: equilibrium models and the F15 world
views.

An EHT interpretation pairs a world view ("there") with a function h mapping
each interpretation to a subset of itself ("here").  A positive atom is read
from h at the point, and K/M over a positive inner literal read h at every
point of the world view.  Everything else reads the total ("there")
valuation: truth constants, default-negated literals, `not K`/`not M`, and
K/M over a negated inner literal.  A rule holds at a point when its body
fails there or its head meets h at the point.  With h the identity the
reading is modal satisfaction.  The definitional API (an EHT interpretation
object, satisfaction of a construct at a point, EHT models) lives in
`tests/test_eht.py`, where it is the reference the evaluator here is tested
against.

Equilibrium models are total models admitting no smaller "here" model; F15
world views are the equilibrium models that survive the ⊂ / ≤ comparison.
The ordering ≤ quantifies over interpretations that belong to *some*
equilibrium model.

The program is compiled once (`_Compiled`) into the masks of
`objective.compile_rule`, over the bits of `objective.AtomBits`: a point and
a here-value are masks of atoms.  `pos`, `k` and `m` read h; every other
field reads the total valuation.  Given a world view, the total reads of a
rule are decided per point by the AND and the OR of the world view's points
(`objective._point_rules`); what is left reads h through the here-value at
the point and the AND and the OR of h over the world view
(`objective._violated`).  One pair of functions serves the total checks (h
the identity), the countermodel search and condition (1) of `foundedness`.
Since a point's total reads depend only on the point, the AND and the OR,
a `_Compiled` finds its modal rules and its total check once per such
signature; the candidates and the ⊂ / ≤ comparison meet each many times.
The cache lives on the instance, and each call compiles its own.

Countermodels (`equilibrium_countermodel`, and `models_star` with X ⊊ wv)
are found by a depth-first search over the free points in `interp_key`
order, trying each point's "here" values in `subsets` order, so the first
one found is the first of the full product of those choices.  With bits in
`atom_key` order, `subsets(sorted(point, key=atom_key))` is the point's
submasks in increasing order, and `interp_key` order is the order of the
points' tuples of bit positions.  A point not yet decided reads as ∅, and a
branch is dropped as soon as a rule fails at a decided point.  That is
sound because a rule body is monotone in h: only its "here" literals read h,
and the rest read the total valuation.  A body true with ∅ at the undecided
points stays true however they are decided, and the head at a decided point
is fixed, so no completion of the branch repairs the rule.  A rule with no
subjective literal reads only the point and h there, so the here-values it
allows at a point are found once per point (`here_values`) and are the only
ones tried.  The rules with a subjective literal are checked at a point when
it is decided; afterwards only those with a `K a` or `M a` literal are
checked there again, since only they read the here-values of other points.

For the same reason `total_model_countermodels` keeps the points that
satisfy the rules with no subjective literal once and builds candidate
world views from them alone, in `subsets` order over the kept points, which
is a subsequence of the order over all points; only the rules with a
subjective literal are checked per candidate.  It lists every total model,
and `elps solve --semantics f15 --explain` prints them all.  The F15 oracle
`f15_brute_world_views` makes the selection of `f15_world_views` among the
equilibria of this walk.

The equilibria (`equilibrium_eht_models`, `f15_world_views`) are a
selection over the G91 guess loop (`semantics.g91_reducts`), which groups
the guesses of core values by compiled G91 reduct and searches each
reduct's stable models once.  The candidates of a reduct are the non-empty
sets S of its stable models whose core bits (`semantics._view`) are among
its guesses; the countermodel search decides each.  Call x a here-value
that passes at a point p of a world view W when the rules hold at p with
the positive atoms read from x, and K and M from the AND and the OR of W:
that is, x is a model of the reduct of the G91 reduct at W with respect to
p.  So p is a stable model of that G91 reduct iff p passes and no x ⊊ p
does.  The candidates are exactly the total models that can be equilibria:

- Every candidate S is a total model.  Its guess v = cores(S) gives each
  subjective literal the value it has at S, so at a point of S the total
  reading of a rule is the reading of its G91 reduct at v, and a stable
  model of that reduct is a model of it.
- Every equilibrium W is a candidate, of the reduct at its own guess
  cores(W), which the twin prune keeps since W is not empty.  Suppose some
  x ⊊ p passes at a point p of W.  Let h be the identity on W except
  h(p) = x.  Only objective atoms and positive K/M read h, and the AND and
  the OR of h lie within those of W.  A body true under h is then true
  under the identity, so every rule holds at the other points, whose heads
  read the identity, and at p, where x passes.  So h is a non-total EHT
  model, and W is not an equilibrium.  Hence every point of W is a stable
  model of the G91 reduct at cores(W).

World views and countermodels are turned back into sets of atoms only when
they are returned.
"""

from __future__ import annotations

from .modal import WorldView
from .objective import AtomBits, _and_or, _point_rules, _violated, compile_rule
from .semantics import _view, g91_reducts, subjective_cores
from .syntax import Program, atom_key, capped_atoms, interp_key, subsets

F15_MAX_ATOMS = 3  # f15, and its oracle's walk over 2^(2^n) candidate world views


def _here_reading(rules) -> list[tuple[int, int, int, int]]:
    """The `_point_rules` with a `K a` or `M a` literal, the ones that read
    the here-values of other points."""
    return [rule for rule in rules if rule[1] | rule[2]]


class _Compiled(AtomBits):
    """A program as `compile_rule` masks over the bits of `atoms`."""

    def __init__(self, program: Program, atoms):
        super().__init__(atoms)
        self.rules = [compile_rule(r, self.bit) for r in program.rules]
        self.objective = [c for c, r in zip(self.rules, program.rules) if not r.body_sub]
        self.modal = [c for c, r in zip(self.rules, program.rules) if r.body_sub]
        self._here_values: dict[int, list[int]] = {}
        self._keys: dict[int, tuple[int, ...]] = {}
        self._readings: dict[tuple[int, int, int], tuple[list, bool]] = {}

    @classmethod
    def over(cls, program: Program, interps) -> "_Compiled":
        """Compiled over the program's atoms and those of `interps`."""
        return cls(program, sorted(program.atoms.union(*interps), key=atom_key))

    @classmethod
    def capped(cls, program: Program) -> "_Compiled":
        """Compiled over the program's atoms, within the EHT cap."""
        return cls(program, capped_atoms(program, F15_MAX_ATOMS, "EHT"))

    def world_view(self, points) -> WorldView:
        return WorldView(frozenset(self.interp(p) for p in points))

    def h_map(self, h: dict[int, int]) -> dict[frozenset, frozenset]:
        return {self.interp(p): self.interp(here) for p, here in h.items()}

    def point_key(self, point: int) -> tuple[int, ...]:
        """The point's bit positions: with bits in `atom_key` order, this
        orders points as `interp_key` orders their interpretations."""
        key = self._keys.get(point)
        if key is None:
            key = self._keys[point] = tuple(i for i in range(point.bit_length()) if point >> i & 1)
        return key

    def here_values(self, point: int) -> list[int]:
        """The point's submasks, in increasing order, at which the objective
        rules hold there; they read no other point, so this is once per point.
        The point itself is among them iff those rules hold in the total
        reading."""
        values = self._here_values.get(point)
        if values is None:
            rules = _point_rules(self.objective, point, 0, 0)
            values = [s for s in range(point + 1) if s & point == s and not _violated(rules, s, 0, 0)]
            self._here_values[point] = values
        return values

    def _reading(self, point: int, w_and: int, w_or: int) -> tuple[list, bool]:
        """The `_point_rules` of the rules with a subjective literal at
        `point`, in a world view whose points have AND `w_and` and OR `w_or`,
        and whether the program holds there in the total reading.  Both
        depend on nothing else, so they are found once per signature."""
        key = (point, w_and, w_or)
        reading = self._readings.get(key)
        if reading is None:
            rules = _point_rules(self.modal, point, w_and, w_or)
            holds = point in self.here_values(point) and not _violated(rules, point, w_and, w_or)
            reading = self._readings[key] = (rules, holds)
        return reading

    def modal_rules(self, points) -> dict[int, list]:
        """`_point_rules` of the rules with a subjective literal, per point."""
        w_and, w_or = _and_or(points)
        return {p: self._reading(p, w_and, w_or)[0] for p in points}

    def total_holds(self, points, at) -> bool:
        """Whether the program holds in the total reading at each of `at`, in
        the world view `points`."""
        w_and, w_or = _and_or(points)
        return all(self._reading(p, w_and, w_or)[1] for p in at)

    def countermodel(self, points, free, rules) -> dict[int, int] | None:
        """The first non-total h, total outside `free`, that models the
        program at every point of the world view `points`, whose
        `modal_rules` are `rules`, or None; the pruned search of the module
        docstring.  Only the here-values that pass the objective rules are
        tried, so only `rules` are checked."""
        fixed = [p for p in points if p not in free]
        free = sorted(free, key=self.point_key)
        f_and, f_or = _and_or(fixed)
        # with a free point still ∅, the AND of h is 0
        if not free or not all(
            p in self.here_values(p) and not _violated(rules[p], p, 0, f_or) for p in fixed
        ):
            return None
        # (here-value, rules that read other points' here-values) per decided point
        decided = [(p, r) for p in fixed if (r := _here_reading(rules[p]))]
        here: dict[int, int] = {}
        last = len(free) - 1

        def search(k: int, h_and: int, h_or: int, non_total: bool) -> bool:
            point = free[k]
            at_point = rules[point]
            recheck = _here_reading(at_point)
            for x in self.here_values(point):
                x_and = h_and & x if k == last else 0
                x_or = h_or | x
                if _violated(at_point, x, x_and, x_or) or any(
                    _violated(r, d, x_and, x_or) for d, r in decided
                ):
                    continue
                here[point] = x
                nt = non_total or x != point
                if k == last:
                    if nt:
                        return True
                    continue
                if recheck:
                    decided.append((x, recheck))
                found = search(k + 1, h_and & x, x_or, nt)
                if recheck:
                    decided.pop()
                if found:
                    return True
            return False

        if not search(0, f_and, f_or, False):
            return None
        return {**{p: p for p in fixed}, **here}

    def models_star(self, points, X) -> bool:
        """`models_star` over masks: X ⊆ points."""
        if not self.total_holds(points, X):
            return False
        return self.countermodel(points, X, self.modal_rules(points)) is None

    def total_models(self):
        """(points, countermodel or None) for every candidate world view that
        is a total model, in `subsets` order."""
        # a point whose total reading fails an objective rule is in no model
        kept = [p for p in range(1 << len(self.atoms)) if p in self.here_values(p)]
        for points in subsets(kept):
            if points and self.total_holds(points, points):
                yield points, self.countermodel(points, points, self.modal_rules(points))


def _countermodel(program: Program, wv: WorldView, free):
    """The first non-total h, total outside `free`, that models the program at
    all points, or None."""
    c = _Compiled.over(program, wv.interps)
    points = [c.mask(i) for i in wv.interps]
    h = c.countermodel(points, {c.mask(i) for i in free}, c.modal_rules(points))
    return None if h is None else c.h_map(h)


def equilibrium_countermodel(program: Program, wv: WorldView):
    """A non-total h that models the program at all points, or None."""
    return _countermodel(program, wv, wv.interps)


def total_model_countermodels(program: Program) -> list[tuple[WorldView, dict | None]]:
    """Every candidate world view that is a total EHT model, in enumeration
    order, paired with its equilibrium countermodel (None for an equilibrium)."""
    c = _Compiled.capped(program)
    return [(c.world_view(wv), h if h is None else c.h_map(h)) for wv, h in c.total_models()]


def _equilibria(c: _Compiled, program: Program):
    """The equilibrium models, as sets of points: per compiled G91 reduct,
    the non-empty sets of its stable models whose core bits are among its
    guesses, kept when they have no countermodel (module docstring)."""
    cores = subjective_cores(program)
    for models, guesses in g91_reducts(program, cores):
        for interps in subsets(sorted(models, key=interp_key)):
            if _view(interps, cores)[1] in guesses:
                points = frozenset(map(c.mask, interps))
                if c.countermodel(points, points, c.modal_rules(points)) is None:
                    yield points


def equilibrium_eht_models(program: Program) -> frozenset[WorldView]:
    """Total EHT models with no strictly smaller "here" model."""
    c = _Compiled.capped(program)
    return frozenset(c.world_view(wv) for wv in _equilibria(c, program))


def models_star(wv: WorldView, X, program: Program) -> bool:
    """The auxiliary satisfaction relation behind the F15 ordering.

    (1) the program holds at every point of X in the total reading;
    (2) any EHT-model (all points) that is total outside X must be total.

    With X = wv this is exactly the equilibrium condition.
    """
    X = frozenset(frozenset(i) for i in X)
    if not X <= wv.interps:
        raise ValueError("X must be a subset of the world view")
    c = _Compiled.over(program, wv.interps)
    return c.models_star([c.mask(i) for i in wv.interps], {c.mask(i) for i in X})


def _f15_selection(c: _Compiled, equilibria) -> frozenset[WorldView]:
    """The equilibria not dominated by a ⊃-larger or ≤-greater one."""
    if not equilibria:
        return frozenset()
    domain = sorted(frozenset().union(*equilibria), key=c.point_key)
    star_cache: dict[tuple, bool] = {}

    def star(points: frozenset, X: frozenset) -> bool:
        key = (points, X)
        if key not in star_cache:
            star_cache[key] = c.models_star(points, X)
        return star_cache[key]

    def less_equal(w1: frozenset, w2: frozenset) -> bool:
        for i in domain:
            if star(w1 | {i}, w1) and not star(w2 | {i}, w2):
                return False
        return True

    def dominates(other: frozenset, wv: frozenset) -> bool:
        return wv < other or (less_equal(wv, other) and not less_equal(other, wv))

    return frozenset(
        c.world_view(wv) for wv in equilibria if not any(dominates(o, wv) for o in equilibria if o != wv)
    )


def f15_world_views(program: Program) -> frozenset[WorldView]:
    """Equilibrium models not dominated by a ⊃-larger or ≤-greater one,
    the equilibria taken from the G91 guess loop."""
    c = _Compiled.capped(program)
    return _f15_selection(c, list(_equilibria(c, program)))


def f15_brute_world_views(program: Program) -> frozenset[WorldView]:
    """Oracle for F15: the same selection over the equilibria of the walk
    over every total model, the candidates with no countermodel."""
    c = _Compiled.capped(program)
    return _f15_selection(c, [points for points, h in c.total_models() if h is None])
