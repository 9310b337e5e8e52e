"""Epistemic splitting: decomposition, solutions, stratification and the
property checks.

An epistemic splitting set U requires each rule to either live entirely
inside U (all its `atoms`) or to mention U only through subjective literals
(none of its `objective_atoms`).  Subjective constraints on U satisfy both
conditions and are placed per policy.  Equivalently, U is closed under one
relation: an objective atom of a rule pulls in all its atoms.  `_close`
takes closures under it, and `closed_component`, the splitting-set
enumeration and `stratify` all read them.

A program is partitioned at U by `engine.once(epistemic_split, ...)`
alone, so in an open memo each (program, U, placement) is split once.
`compose` is the one place a split's solutions (`objective.split_solutions`)
are combined: world views of the bottom simplify the top's subjective
literals on U to truth constants, and each pair composes with ⊔.  G91 and
C19 satisfy epistemic splitting, so `engine.solve` sends them to
`component_world_views`, which composes one closed component at a time;
`check_epistemic_splitting` composes the split it checks.  `elps split`
takes its verdict and the solutions it prints from one such check
(`checked_composition`), so it composes its split once.  A bottom and an
unsimplified top keep the program's `Rule` objects, and with them the atom
sets already computed.

Every property check here is an equation between two sets of world views.
`equation_report` compares the two sides and keeps them, with the program
and U, as values; `PropertyReport.to_json` renders them, and runs only
where a report is shown.

`stratify` is the paper's stratification: the least levels on which modal
dependencies strictly decrease.  By the splitting theorem a stratified
program has at most one world view under G91 and C19, and the component
solver reaches it without consulting the levels.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import engine, objective
from . import semantics as _semantics
from .errors import CapacityError, NotAnEpistemicSplittingSet, NotStratified
from .modal import WorldView, modal_satisfies, subjective_reduct, world_views_to_json
from .objective import AtomBits, Split, partition, split_solutions
from .semantics import SemanticsId
from .syntax import Atom, Program, Rule, atom_key, capped_atoms, interp_key


def dep_relation(program: Program) -> frozenset[tuple[Atom, Atom]]:
    """dep(a, b): a heads or objectively depends on a rule querying b modally."""
    return frozenset(
        (a, lit.atom) for rule in program.rules for lit in rule.body_sub for a in rule.objective_atoms
    )


def epistemic_split(program: Program, U, placement: str = "bottom") -> Split:
    """Epistemic splitting set: the top may read U only through subjective literals."""
    return partition(program, U, placement, lambda r: r.objective_atoms, NotAnEpistemicSplittingSet)


def top_simplification(split: Split, wv_b: WorldView) -> Program:
    """E: subjective reduct of the top w.r.t. the bottom world view, signature
    U; the top as it is when it does not mention U."""
    return subjective_reduct(split.top, wv_b, split.U) if split.top.atoms & split.U else split.top


def combine(wv_b: WorldView, wv_t: WorldView) -> WorldView:
    return WorldView.of(i_b | i_t for i_b in wv_b.interps for i_t in wv_t.interps)


def compose(split: Split, semantics: SemanticsId) -> dict[tuple[WorldView, Program, WorldView], WorldView]:
    """Each solution (bottom world view, top simplified by it, world view of
    that top) of a split, both sides solved by `engine.solve`, mapped to the
    world view it combines to; the values are the split's world views.  The
    bottom and the simplified top share no atom, so distinct solutions
    combine to distinct world views, and more than `semantics.MAX_GUESSES`
    of them raise CapacityError; the whole-program guess loop yields at most
    one view per guess, so it never returns more."""
    composed = {}
    for wv_b, top, wv_t in split_solutions(split, lambda p: engine.solve(p, semantics), top_simplification):
        composed[wv_b, top, wv_t] = combine(wv_b, wv_t)
        if len(composed) > _semantics.MAX_GUESSES:
            raise CapacityError(f"the world views exceed the guess cap of {_semantics.MAX_GUESSES}")
    return composed


# ---------------------------------------------------------------------------
# the closure relation


def _links(bits: AtomBits, program: Program) -> list[tuple[int, int]]:
    """Each distinct rule as a (trigger, link) pair of masks: its objective
    atoms and all its atoms."""
    return list({(bits.mask(r.objective_atoms), bits.mask(r.atoms)) for r in program.rules})


def _close(mask: int, links) -> int:
    """The smallest superset of `mask` that holds every link whose trigger
    it meets."""
    before = None
    while mask != before:
        before = mask
        for trigger, link in links:
            if trigger & mask:
                mask |= link
    return mask


# ---------------------------------------------------------------------------
# solving component by component


def closed_component(program: Program) -> frozenset[Atom] | None:
    """A splitting set U to split off first; None for a single component.

    Blocks are closures when every atom of a rule triggers it.  With several
    blocks, U is the first atom's, and no rule outside it mentions it.  In
    one block, U is the smallest closure of one atom (the first on ties)
    when only objective atoms trigger: a minimal splitting set, which the
    top reads through subjective literals only.
    """
    bits = AtomBits(sorted(program.atoms, key=atom_key))
    links = _links(bits, program)
    every = (1 << len(bits.atoms)) - 1
    block = _close(every & 1, [(link, link) for _, link in links])
    if block != every:
        return bits.interp(block)
    U = min((_close(bit, links) for bit in bits.bit.values()), key=int.bit_count, default=every)
    return bits.interp(U) if U != every else None


def component_world_views(program: Program, semantics: SemanticsId) -> frozenset[WorldView]:
    """World views under a semantics that satisfies epistemic splitting,
    from its registry `direct` whole-program solver, run on one closed
    component at a time.

    Each step splits `closed_component` U off as the bottom and `compose`s
    the split: bottom and top are solved by `engine.solve`, which comes back
    here (through the memo when one is open), the top once per distinct
    `top_simplification` against a bottom world view.  A program of one
    component, such as the bottom of a sink component, goes to `direct`
    whole through `engine.once`, under the key that C19's `direct` reads its
    G91 base views by, so in a memo C19 takes them from the G91 solve.

    Caps: `objective.MAX_ATOMS` bounds the whole program, so no world view
    has more than 2^MAX_ATOMS interpretations.  `direct` applies the other
    caps, such as `semantics.MAX_GUESSES` and
    `foundedness.FOUNDED_MAX_ATOMS`, to one component at a time, and
    `compose` caps the assembled answer at `MAX_GUESSES` world views.  The
    semantics that are not solved by components apply every cap to the
    whole program.
    """
    capped_atoms(program, objective.MAX_ATOMS, "exhaustive-search")
    U = engine.once(closed_component, program)
    if U is None:
        return engine.once(engine.REGISTRY[semantics].direct, program)
    return frozenset(compose(engine.once(epistemic_split, program, U, "bottom"), semantics).values())


SPLIT_ENUM_MAX_ATOMS = 12  # splitting-set enumeration over 2^n subsets


def enumerate_epistemic_splitting_sets(program: Program) -> frozenset[frozenset[Atom]]:
    """All proper non-empty U that split the program: the masks that are
    their own closure.  The closure of a union is the union of closures, so
    the walk over all 2^n masks builds each from a smaller mask's and one
    atom's.  The cap is `SPLIT_ENUM_MAX_ATOMS`.
    """
    bits = AtomBits(capped_atoms(program, SPLIT_ENUM_MAX_ATOMS, "split-enumeration"))
    links = _links(bits, program)
    closure = [0]  # closure[u] for each mask u
    for bit in bits.bit.values():
        atom = _close(bit, links)
        closure += [c | atom for c in closure]
    return frozenset(bits.interp(u) for u, c in enumerate(closure[1:-1], 1) if c == u)


# ---------------------------------------------------------------------------
# property checks


@dataclass
class PropertyReport:
    """One property check: its verdict and its evidence, kept as values.

    `program` is the program checked; for subjective-constraint
    monotonicity, the pair (program, added constraint).  `U` is the
    splitting set, or None; `lhs` and `rhs` are the two sets of world views
    the property equates.  `to_json` is the one place they are rendered, so
    a report that is never shown is never rendered."""

    property: str
    semantics: str
    verdict: str  # "holds" | "violated"
    program: Program | tuple[Program, Rule]
    U: frozenset[Atom] | None
    lhs: frozenset[WorldView]
    rhs: frozenset[WorldView]

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"

    def to_json(self, seed: int | None = None) -> dict:
        """The fields as JSON values: the program as its text, with an added
        constraint on a last `% added constraint:` line, U as its sorted
        atoms and each side as sorted world views; then `seed`, the seed of
        the matrix build that kept the report, if any."""
        program, *added = self.program if isinstance(self.program, tuple) else (self.program,)
        return {
            **vars(self),
            "program": "\n".join([str(program), *(f"% added constraint: {c}" for c in added)]),
            "U": None if self.U is None else list(interp_key(self.U)),
            "lhs": world_views_to_json(self.lhs),
            "rhs": world_views_to_json(self.rhs),
            "seed": seed,
        }

    def witness(self):
        """None when the property holds, else its rendered evidence."""
        if self.holds:
            return None
        return {key: value for key, value in self.to_json().items() if key in ("program", "U", "lhs", "rhs")}


def equation_report(prop, semantics: SemanticsId, program, lhs, rhs, U=None) -> PropertyReport:
    """The report on a property that holds exactly when the world views
    `lhs` and `rhs` are the same set; it keeps both sides, `program` and
    `U` as they are."""
    lhs, rhs = frozenset(lhs), frozenset(rhs)
    return PropertyReport(prop, semantics.value, "holds" if lhs == rhs else "violated", program, U, lhs, rhs)


def check_epistemic_splitting(
    program: Program,
    U,
    semantics: SemanticsId,
    placement: str | None = None,
) -> PropertyReport:
    """Direct world views vs. the `compose`d split; holds iff the sets
    coincide.

    The direct side comes first, so the whole program is in the semantics'
    language before any part of it is solved.  The property quantifies over
    every valid splitting, so by default both placements of subjective
    constraints on U are checked; pass an explicit placement to check a
    single decomposition.
    """
    return checked_composition(program, U, semantics, placement)[0]


def checked_composition(
    program: Program, U, semantics: SemanticsId, placement: str | None = None
) -> tuple[PropertyReport, dict[tuple[WorldView, Program, WorldView], WorldView]]:
    """`check_epistemic_splitting`'s report, with the composition its `rhs`
    was read from: the first placement's that differs from the direct world
    views, else the last placement's."""
    U = frozenset(U)
    if placement is None:
        dual = any(r.atoms <= U and not (r.objective_atoms & U) for r in program.rules)
        placements = ("bottom", "top") if dual else ("bottom",)
    else:
        placements = (placement,)
    lhs = engine.compute_world_views(program, semantics)
    for place in placements:
        composed = compose(engine.once(epistemic_split, program, U, place), semantics)
        if frozenset(composed.values()) != lhs:
            break
    return equation_report("epistemic_splitting", semantics, program, lhs, composed.values(), U), composed


def check_constraint_monotonicity(program: Program, constraint: Rule, semantics: SemanticsId) -> PropertyReport:
    """World views of the extended program vs. the filtered world views."""
    if not constraint.is_subjective_constraint:
        raise ValueError(f"{constraint} is not a subjective constraint")
    extended = Program.of(program.rules + (constraint,))
    lhs = engine.compute_world_views(extended, semantics)
    rhs = frozenset(
        wv
        for wv in engine.compute_world_views(program, semantics)
        if modal_satisfies(wv, frozenset(), constraint)
    )
    return equation_report("subjective_constraint_monotonicity", semantics, (program, constraint), lhs, rhs)


# ---------------------------------------------------------------------------
# stratification


def stratify(program: Program) -> dict[Atom, int]:
    """The least levels such that the objective atoms of a rule share one
    and each dep(a, b) descends.  dep(a, b) puts b in the closure of a, so
    NotStratified when a is in the closure of b.  Otherwise an atom lies one
    above the highest atom strictly below it (in its closure, and it not in
    theirs), or at 0; those have smaller closures, so come first."""
    bits = AtomBits(sorted(program.atoms, key=atom_key))
    links = _links(bits, program)
    closure = {a: _close(bit, links) for a, bit in bits.bit.items()}
    for a, b in sorted(dep_relation(program), key=lambda p: (atom_key(p[0]), atom_key(p[1]))):
        if closure[b] & bits.bit[a]:
            raise NotStratified(f"modal dependency dep({a},{b}) lies on a cycle")
    level: dict[Atom, int] = {}
    for a in sorted(bits.atoms, key=lambda a: closure[a].bit_count()):
        below = (level[b] for b in bits.atoms if closure[a] & bits.bit[b] and not closure[b] & bits.bit[a])
        level[a] = 1 + max(below, default=-1)
    return {a: level[a] for a in bits.atoms}
