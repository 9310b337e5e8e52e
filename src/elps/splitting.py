"""Epistemic splitting: decomposition, solutions, stratification and the
property checks.

An epistemic splitting set U requires each rule to either live entirely
inside U or to mention U only through subjective literals.  Subjective
constraints on U satisfy both conditions and are placed per policy.  Solving
then proceeds bottom-up: world views of the bottom simplify the top's
subjective literals to truth constants, and solutions compose with ⊔.

G91 and C19 satisfy epistemic splitting, so `component_world_views` solves
them one closed component at a time and composes the world views.

Stratified programs (modal dependencies strictly decrease levels) are
evaluated by iterated splitting: the lowest level splits off as an objective
bottom, its stable models form its world view, and the rest is simplified
against it before the next level splits off.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from . import engine
from .config import DEFAULT_LIMITS, SolverLimits
from .errors import CapacityError, ElpError, NotAnEpistemicSplittingSet, NotStratified
from .modal import WorldView, modal_satisfies, subjective_reduct, world_views_to_json
from .objective import AtomBits, Split, partition, stable_models
from .semantics import SemanticsId
from .syntax import Atom, Program, Rule, atom_key, atoms_of, capped_atoms


def objective_atoms(rule: Rule) -> frozenset[Atom]:
    """Head plus objective body: the atoms a rule mentions outside K/M literals."""
    return rule.head | atoms_of(rule.body_obj)


def dep_relation(program: Program) -> frozenset[tuple[Atom, Atom]]:
    """dep(a, b): a heads or objectively depends on a rule querying b modally."""
    deps = set()
    for rule in program.rules:
        sub_atoms = {l.atom for l in rule.body_sub}
        if not sub_atoms:
            continue
        for a in objective_atoms(rule):
            for b in sub_atoms:
                deps.add((a, b))
    return frozenset(deps)


def epistemic_split(program: Program, U, placement: str = "bottom") -> Split:
    """Epistemic splitting set: the top may read U only through subjective literals."""
    return partition(program, U, placement, objective_atoms, NotAnEpistemicSplittingSet)


def top_simplification(split: Split, wv_b: WorldView) -> Program:
    """E: subjective reduct of the top w.r.t. the bottom world view, signature U."""
    return subjective_reduct(split.top, wv_b, split.U)


def combine(wv_b: WorldView, wv_t: WorldView) -> WorldView:
    return WorldView.of(i_b | i_t for i_b in wv_b.interps for i_t in wv_t.interps)


@dataclass(frozen=True)
class EpistemicSolution:
    wv_b: WorldView
    wv_t: WorldView

    @property
    def combined(self) -> WorldView:
        return combine(self.wv_b, self.wv_t)


def epistemic_solutions(
    program: Program,
    U,
    semantics: SemanticsId,
    placement: str = "bottom",
    limits: SolverLimits = DEFAULT_LIMITS,
) -> frozenset[EpistemicSolution]:
    split = epistemic_split(program, U, placement)
    solutions = []
    for wv_b in engine.compute_world_views(split.bottom, semantics, limits):
        simplified = top_simplification(split, wv_b)
        for wv_t in engine.compute_world_views(simplified, semantics, limits):
            solutions.append(EpistemicSolution(wv_b, wv_t))
    return frozenset(solutions)


# ---------------------------------------------------------------------------
# solving component by component


def _classes(atoms: list[Atom], linked) -> list[frozenset[Atom]]:
    """The finest partition of `atoms` that keeps each set of `linked` in one
    class, in the order of each class's first atom."""
    cls = {a: frozenset([a]) for a in atoms}
    for group in linked:
        merged = frozenset().union(*(cls[a] for a in group))
        for a in merged:
            cls[a] = merged
    return list(dict.fromkeys(cls[a] for a in atoms))


def closed_component(program: Program) -> tuple[frozenset[Atom], bool] | None:
    """A splitting set U to split off first and whether the top then does not
    mention U at all; None when the program is a single component.

    Atoms that a chain of rules connects form a block.  With several blocks,
    U is the first one, and no rule outside it mentions it.  In one block,
    atoms sharing the head or objective body of a rule form a group, and
    dep(a, b) leads from a's group to b's.  The groups reachable from one
    group make a splitting set; the smallest of these is a minimal one (a
    sink of the strongly connected components), which the top reads through
    subjective literals only.
    """
    atoms = sorted(atoms_of(program), key=atom_key)
    blocks = _classes(atoms, (atoms_of(r) for r in program.rules))
    if len(blocks) > 1:
        return blocks[0], True
    groups = _classes(atoms, (objective_atoms(r) for r in program.rules))
    group_of = {a: g for g in groups for a in g}
    successors: dict[frozenset[Atom], set[frozenset[Atom]]] = {g: set() for g in groups}
    for a, b in dep_relation(program):
        successors[group_of[a]].add(group_of[b])

    def reachable(group: frozenset[Atom]) -> frozenset[Atom]:
        seen, stack = {group}, [group]
        while stack:
            for succ in successors[stack.pop()]:
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        return frozenset().union(*seen)

    U = min(map(reachable, groups), key=len, default=frozenset())
    return (U, False) if len(U) < len(atoms) else None


def component_world_views(
    program: Program,
    direct: engine.Solver,
    limits: SolverLimits = DEFAULT_LIMITS,
) -> frozenset[WorldView]:
    """World views under a semantics that satisfies epistemic splitting,
    from `direct`, its whole-program solver, run on one closed component at
    a time.

    Each step splits `closed_component` U off as the bottom.  When the top
    does not mention U, bottom and top are solved once each and every pair
    of their world views is combined.  Otherwise `direct` solves the bottom,
    and the top is solved again for each bottom world view after
    `top_simplification`.  A program of one component goes to `direct`
    whole.

    Caps: `max_atoms` bounds the whole program, so no world view has more
    than 2^max_atoms interpretations.  `direct` applies the other caps, such
    as `max_guesses` and `founded_max_atoms`, to one component at a time.
    An assembled answer of more than `max_guesses` world views raises
    CapacityError; the whole-program guess loop yields at most one view per
    guess, so it never returns more.
    """
    capped_atoms(program, limits.max_atoms, "exhaustive-search")
    found = closed_component(program)
    if found is None:
        return direct(program, limits)
    U, independent = found
    split = epistemic_split(program, U, "bottom")
    if independent:
        bottoms = component_world_views(split.bottom, direct, limits)
        tops = component_world_views(split.top, direct, limits) if bottoms else frozenset()
        pairs = ((wv_b, wv_t) for wv_b in bottoms for wv_t in tops)
    else:
        pairs = (
            (wv_b, wv_t)
            for wv_b in direct(split.bottom, limits)
            for wv_t in component_world_views(top_simplification(split, wv_b), direct, limits)
        )
    views = set()
    for wv_b, wv_t in pairs:
        views.add(combine(wv_b, wv_t))
        if len(views) > limits.max_guesses:
            raise CapacityError(f"the world views exceed the guess cap of {limits.max_guesses}")
    return frozenset(views)


def enumerate_epistemic_splitting_sets(
    program: Program,
    limits: SolverLimits = DEFAULT_LIMITS,
) -> frozenset[frozenset[Atom]]:
    """All proper non-empty U that split the program.

    Each rule is compiled once to two `AtomBits` masks, its atoms and its
    objective atoms (head and objective body); U splits iff every rule has
    all its atoms in U or no objective atom in U (the test of
    `epistemic_split`).
    """
    bits = AtomBits(capped_atoms(program, limits.split_enum_max_atoms, "split-enumeration"))
    rules = {(bits.mask(atoms_of(r)), bits.mask(objective_atoms(r))) for r in program.rules}
    return frozenset(
        bits.interp(u)
        for u in range(1, (1 << len(bits.atoms)) - 1)
        if all(not (every & ~u) or not (objective & u) for every, objective in rules)
    )


# ---------------------------------------------------------------------------
# property checks


@dataclass
class PropertyReport:
    property: str
    semantics: str
    verdict: str  # "holds" | "violated"
    program: str
    U: list[str] | None = None
    lhs: list = field(default_factory=list)
    rhs: list = field(default_factory=list)
    seed: int | None = None

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"

    def witness(self):
        if self.holds:
            return None
        return {"program": self.program, "U": self.U, "lhs": self.lhs, "rhs": self.rhs}

    def to_json(self) -> dict:
        return asdict(self)


def check_epistemic_splitting(
    program: Program,
    U,
    semantics: SemanticsId,
    placement: str | None = None,
    limits: SolverLimits = DEFAULT_LIMITS,
    seed: int | None = None,
) -> PropertyReport:
    """Direct world views vs. composed solutions; holds iff the sets coincide.

    The property quantifies over every valid splitting, so by default both
    placements of subjective constraints on U are checked; pass an explicit
    placement to check a single decomposition.
    """
    U = frozenset(U)
    if placement is None:
        dual = any(atoms_of(r) <= U and not (objective_atoms(r) & U) for r in program.rules)
        placements = ("bottom", "top") if dual else ("bottom",)
    else:
        placements = (placement,)
    lhs = engine.compute_world_views(program, semantics, limits)
    verdict = "holds"
    rhs_shown = None
    for place in placements:
        rhs = frozenset(
            s.combined for s in epistemic_solutions(program, U, semantics, place, limits)
        )
        if rhs_shown is None:
            rhs_shown = rhs
        if lhs != rhs:
            verdict = "violated"
            rhs_shown = rhs
            break
    return PropertyReport(
        property="epistemic_splitting",
        semantics=semantics.value,
        verdict=verdict,
        program=str(program),
        U=sorted(str(a) for a in U),
        lhs=world_views_to_json(lhs),
        rhs=world_views_to_json(rhs_shown),
        seed=seed,
    )


def check_constraint_monotonicity(
    program: Program,
    constraint: Rule,
    semantics: SemanticsId,
    limits: SolverLimits = DEFAULT_LIMITS,
    seed: int | None = None,
) -> PropertyReport:
    """World views of the extended program vs. the filtered world views."""
    if not constraint.is_subjective_constraint:
        raise ValueError(f"{constraint} is not a subjective constraint")
    extended = Program.of(program.rules + (constraint,), program.extra_atoms)
    lhs = engine.compute_world_views(extended, semantics, limits)
    rhs = frozenset(
        wv
        for wv in engine.compute_world_views(program, semantics, limits)
        if modal_satisfies(wv, frozenset(), constraint)
    )
    return PropertyReport(
        property="subjective_constraint_monotonicity",
        semantics=semantics.value,
        verdict="holds" if lhs == rhs else "violated",
        program=str(program) + "\n% added constraint: " + str(constraint),
        U=None,
        lhs=world_views_to_json(lhs),
        rhs=world_views_to_json(rhs),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# stratification


@dataclass
class Stratification:
    layers: dict[Atom, int]


def stratify(program: Program) -> Stratification:
    """Layer atoms so modal dependencies strictly decrease; objective
    co-occurrence (head and objective body) groups atoms on one layer."""
    atoms = sorted(program.atom_universe, key=atom_key)
    # each group is named by its first atom
    groups = _classes(atoms, (objective_atoms(r) for r in program.rules))
    name = {a: min(g, key=atom_key) for g in groups for a in g}

    edges: dict[Atom, set[Atom]] = {}
    for a, b in sorted(dep_relation(program), key=lambda p: (atom_key(p[0]), atom_key(p[1]))):
        ga, gb = name[a], name[b]
        if ga == gb:
            raise NotStratified(
                f"modal dependency dep({a},{b}) is internal to one layer group",
                witness=(a, b),
            )
        edges.setdefault(ga, set()).add(gb)

    # longest path over the strict edges; a cycle means no layering exists
    level: dict[Atom, int] = {}
    visiting: set[Atom] = set()

    def height(g: Atom) -> int:
        if g in level:
            return level[g]
        if g in visiting:
            raise NotStratified("cyclic modal dependency", witness=g)
        visiting.add(g)
        value = 0
        for succ in sorted(edges.get(g, ()), key=atom_key):
            value = max(value, height(succ) + 1)
        visiting.discard(g)
        level[g] = value
        return value

    return Stratification({a: height(name[a]) for a in atoms})


def layered_world_view(
    program: Program,
    semantics: SemanticsId,
    limits: SolverLimits = DEFAULT_LIMITS,
) -> WorldView | None:
    """The world view of a stratified program by iterated epistemic
    splitting, None when it has none.

    Each level of the stratification splits off the rest as an objective
    bottom (constraints on it go to the top); its stable models are its
    world view, and the top is simplified against them.  What remains after
    the last level are constraints without atoms.  The result is always
    checked against the direct computation under `semantics` (ElpError if
    they differ).
    """
    layers = stratify(program).layers
    result: WorldView | None = None
    wv = WorldView(frozenset([frozenset()]))
    rest = program
    for level in sorted(set(layers.values())):
        split = epistemic_split(rest, {a for a in layers if layers[a] == level}, "top")
        models = stable_models(split.bottom, limits)
        if not models:
            break
        bottom = WorldView(models)
        wv, rest = combine(wv, bottom), top_simplification(split, bottom)
    else:
        if stable_models(rest, limits):
            result = wv

    direct = engine.compute_world_views(program, semantics, limits)
    expected = frozenset() if result is None else frozenset([result])
    if direct != expected:
        raise ElpError(
            f"layered evaluation disagrees with {semantics}: "
            f"layered={world_views_to_json(expected)} direct={world_views_to_json(direct)}"
        )
    return result
