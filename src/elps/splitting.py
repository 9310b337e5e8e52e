"""Epistemic splitting: decomposition, solutions, stratification and the
property checks.

An epistemic splitting set U requires each rule to either live entirely
inside U or to mention U only through subjective literals.  Subjective
constraints on U satisfy both conditions and are placed per policy.  Solving
then proceeds bottom-up: world views of the bottom simplify the top's
subjective literals to truth constants, and solutions compose with ⊔.

Stratified programs (modal dependencies strictly decrease layers) admit a
layered evaluation that mirrors the uniqueness argument: each layer, after
simplification against the accumulated world view, is an objective program.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .config import DEFAULT_LIMITS, SolverLimits
from .engine import compute_world_views
from .errors import ElpError, NotAnEpistemicSplittingSet, NotObjectiveError, NotStratified
from .modal import WorldView, modal_satisfies, subjective_reduct, world_views_to_json
from .objective import stable_models
from .semantics import SemanticsId
from .syntax import Atom, Program, Rule, atom_key, atoms_of, capped_atoms, is_objective


def dep_relation(program: Program) -> frozenset[tuple[Atom, Atom]]:
    """dep(a, b): a heads or objectively depends on a rule querying b modally."""
    deps = set()
    for rule in program.rules:
        sub_atoms = {l.atom for l in rule.body_sub}
        if not sub_atoms:
            continue
        for a in rule.head | atoms_of(rule.body_obj):
            for b in sub_atoms:
                deps.add((a, b))
    return frozenset(deps)


@dataclass
class EpistemicSplit:
    U: frozenset[Atom]
    bottom: Program
    top: Program
    placement: dict[Rule, str]


def epistemic_split(program: Program, U, placement: str = "bottom") -> EpistemicSplit:
    if placement not in ("bottom", "top"):
        raise ValueError(f"placement must be 'bottom' or 'top', got {placement!r}")
    U = frozenset(U)
    bottom, top = [], []
    record: dict[Rule, str] = {}
    violators = []
    for rule in program.rules:
        cond_i = atoms_of(rule) <= U
        cond_ii = not ((atoms_of(rule.body_obj) | rule.head) & U)
        if cond_i and cond_ii:
            record[rule] = placement
            (bottom if placement == "bottom" else top).append(rule)
        elif cond_i:
            record[rule] = "bottom"
            bottom.append(rule)
        elif cond_ii:
            record[rule] = "top"
            top.append(rule)
        else:
            violators.append(rule)
    if violators:
        raise NotAnEpistemicSplittingSet(violators)
    return EpistemicSplit(U, Program.of(bottom), Program.of(top), record)


def top_simplification(split: EpistemicSplit, wv_b: WorldView) -> Program:
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
    for wv_b in compute_world_views(split.bottom, semantics, limits):
        simplified = top_simplification(split, wv_b)
        for wv_t in compute_world_views(simplified, semantics, limits):
            solutions.append(EpistemicSolution(wv_b, wv_t))
    return frozenset(solutions)


def enumerate_epistemic_splitting_sets(
    program: Program,
    limits: SolverLimits = DEFAULT_LIMITS,
) -> frozenset[frozenset[Atom]]:
    """All proper non-empty U that split the program.

    Each rule is compiled once to two atom bitmasks, its atoms and its
    objective atoms (head and objective body); U splits iff every rule has
    all its atoms in U or no objective atom in U (the test of
    `epistemic_split`).
    """
    atoms = capped_atoms(program, limits.split_enum_max_atoms, "split-enumeration")
    bit = {a: 1 << k for k, a in enumerate(atoms)}

    def mask(xs) -> int:
        return sum(bit[a] for a in xs)

    rules = {(mask(atoms_of(r)), mask(atoms_of(r.body_obj) | r.head)) for r in program.rules}
    return frozenset(
        frozenset(a for a in atoms if bit[a] & u)
        for u in range(1, (1 << len(atoms)) - 1)
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
        return {
            "property": self.property,
            "semantics": self.semantics,
            "program": self.program,
            "U": self.U,
            "verdict": self.verdict,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "seed": self.seed,
        }


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
        dual = any(
            atoms_of(r) <= U and not ((atoms_of(r.body_obj) | r.head) & U)
            for r in program.rules
        )
        placements = ("bottom", "top") if dual else ("bottom",)
    else:
        placements = (placement,)
    lhs = compute_world_views(program, semantics, limits)
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
    lhs = compute_world_views(extended, semantics, limits)
    rhs = frozenset(
        wv
        for wv in compute_world_views(program, semantics, limits)
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
    groups: tuple[frozenset[Atom], ...]


def _nonsubjective_atoms(rule: Rule) -> frozenset[Atom]:
    return atoms_of(rule) - frozenset(l.atom for l in rule.body_sub)


def stratify(program: Program) -> Stratification:
    """Layer atoms so modal dependencies strictly decrease; objective
    co-occurrence (outside subjective bodies) groups atoms on one layer."""
    atoms = sorted(program.atom_universe, key=atom_key)
    parent = {a: a for a in atoms}

    def find(a: Atom) -> Atom:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: Atom, b: Atom):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for rule in program.rules:
        group = sorted(_nonsubjective_atoms(rule), key=atom_key)
        for other in group[1:]:
            union(group[0], other)

    edges: dict[Atom, set[Atom]] = {}
    for a, b in sorted(dep_relation(program), key=lambda p: (atom_key(p[0]), atom_key(p[1]))):
        ga, gb = find(a), find(b)
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

    layers = {a: height(find(a)) for a in atoms}
    groups_by_root: dict[Atom, set[Atom]] = {}
    for a in atoms:
        groups_by_root.setdefault(find(a), set()).add(a)
    groups = tuple(frozenset(g) for _, g in sorted(groups_by_root.items(), key=lambda kv: atom_key(kv[0])))
    return Stratification(layers, groups)


def layered_world_view(
    program: Program,
    semantics: SemanticsId,
    limits: SolverLimits = DEFAULT_LIMITS,
    check: bool = True,
) -> WorldView | None:
    """Bottom-up evaluation of a stratified program, one objective layer at a
    time; None when some layer has no stable model.  With check=True the
    result is checked against the direct computation (ElpError if they differ)."""
    strat = stratify(program)
    values = sorted(set(strat.layers.values()))
    layer_index = {v: i for i, v in enumerate(values)}
    n_layers = len(values)

    def rule_layer(rule: Rule) -> int:
        nonsub = _nonsubjective_atoms(rule)
        if nonsub:
            indices = {layer_index[strat.layers[a]] for a in nonsub}
            if len(indices) != 1:
                raise NotStratified(f"rule {rule} spans layers {sorted(indices)}", witness=rule)
            return indices.pop()
        sub_atoms = atoms_of(rule)
        if not sub_atoms:
            return 0
        # purely subjective constraint: evaluable once its atoms are settled
        return max(layer_index[strat.layers[a]] for a in sub_atoms) + 1

    by_layer: dict[int, list[Rule]] = {}
    for rule in program.rules:
        by_layer.setdefault(min(rule_layer(rule), n_layers), []).append(rule)
    total_layers = n_layers + (1 if n_layers in by_layer else 0)

    atoms_at = {
        i: frozenset(a for a in strat.layers if layer_index[strat.layers[a]] == i)
        for i in range(n_layers)
    }

    result: WorldView | None = None
    settled: set[Atom] = set()
    for i in range(max(total_layers, 1)):
        layer_program = Program.of(by_layer.get(i, []))
        if result is None:
            simplified = layer_program
        else:
            simplified = subjective_reduct(layer_program, result, frozenset(settled))
        if not is_objective(simplified):
            raise NotObjectiveError(f"layer {i} is not objective after simplification")
        models = stable_models(simplified, limits)
        if not models:
            result = None
            break
        layer_wv = WorldView(models)
        result = layer_wv if result is None else combine(result, layer_wv)
        settled |= atoms_at.get(i, frozenset())

    if check:
        direct = compute_world_views(program, semantics, limits)
        expected = frozenset() if result is None else frozenset([result])
        if direct != expected:
            raise ElpError(
                f"layered evaluation disagrees with {semantics}: "
                f"layered={world_views_to_json(expected)} direct={world_views_to_json(direct)}"
            )
    return result
