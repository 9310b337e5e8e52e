"""Classical satisfaction, the objective reduct, stable models and splitting,
and the compiled rule form that every mask-based search shares.

`AtomBits` gives each atom a bit, in `atom_key` order, and `compile_rule`
turns a rule into a head mask, a dead flag and one body mask per kind of
literal; which mask a literal lands in is decided there and nowhere else.
Stable models read the objective masks; the EHT search (`eht`), the
unfounded-set fixpoint (`foundedness`) and the splitting-set enumeration
(`splitting`) use the same encoding.  `_point_rules` and `_violated` read the
masks at a point of a world view, with a here-value h (`eht`); with h the
identity that is modal satisfaction, condition (1) of `foundedness`.

Stable models are computed by the definitional enumeration: every candidate
interpretation over the atom universe is checked to be a ⊆-minimal model of
the reduct.  Minimality only needs to look at proper subsets of the candidate
(a smaller incomparable model never witnesses non-minimality), which cuts the
search from 4^n to 2^n·2^|I|.  A second, set-based implementation path is kept
around as an independent oracle.  `stable_models` is `compile_objective` (the
atom cap and the masks of the live rules) followed by that walk, asked
through the run memo (`engine.once`) with the compiled form as its key:
equal forms have equal stable models, so inside an open `engine.solve_memo()`
each form is searched once per run, and outside one every call searches.
The G91 guess loop also keys its searches by the compiled form, in a dict of
its own, so it shares them outside a memo as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

from . import engine
from .errors import NotASplittingSet, NotObjectiveError
from .syntax import (
    BOT,
    TOP,
    Atom,
    ObjLit,
    Program,
    Rule,
    SubjLit,
    capped_atoms,
    const_truth,
    subsets,
)

Interpretation = frozenset  # of Atom


def _objlit_truth(lit: ObjLit, interp: Interpretation) -> bool:
    value = const_truth(lit)
    if value is None:
        value = lit.base in interp
        if lit.negs % 2 == 1:
            value = not value
    return value


def classical_satisfies(interp: Interpretation, construct) -> bool:
    """Classical reading: comma = conjunction, not = negation, head = disjunction."""
    if isinstance(construct, SubjLit):
        raise NotObjectiveError(f"subjective literal {construct} in a classical context")
    if isinstance(construct, ObjLit):
        return _objlit_truth(construct, interp)
    if isinstance(construct, Rule):
        body_true = all(classical_satisfies(interp, l) for l in construct.body)
        return not body_true or any(a in interp for a in construct.head)
    if isinstance(construct, Program):
        return all(classical_satisfies(interp, r) for r in construct.rules)
    raise TypeError(f"unsupported construct {construct!r}")


def objective_reduct(program: Program, interp: Interpretation) -> Program:
    """Replace each maximal negated literal by ⊤/⊥ per its truth in interp."""
    rules = []
    for rule in program.rules:
        body = []
        for lit in rule.body:
            if isinstance(lit, SubjLit):
                raise NotObjectiveError(f"subjective literal {lit} in objective reduct")
            if lit.negs == 0:
                body.append(lit)
            else:
                body.append(ObjLit(TOP if _objlit_truth(lit, interp) else BOT))
        rules.append(Rule(rule.head, tuple(body)))
    return Program.of(rules)


class AtomBits:
    """Atoms as bits: bit i stands for the i-th atom, and a set of atoms (an
    interpretation, a here-value) is the mask of its bits.  The atoms come in
    `atom_key` order, as `capped_atoms` gives them; they are not sorted again."""

    def __init__(self, atoms):
        self.atoms = tuple(atoms)
        self.bit = {a: 1 << i for i, a in enumerate(self.atoms)}

    def mask(self, atoms) -> int:
        return sum(self.bit[a] for a in atoms)

    def interp(self, mask: int) -> frozenset:
        return frozenset(a for i, a in enumerate(self.atoms) if mask >> i & 1)


def compile_rule(rule: Rule, bit) -> tuple:
    """(dead, head, pos, not1, not2, k, m, every, not_every, some, none).

    `bit` maps each atom to its bit.  `dead` marks a false truth constant
    (a true one is dropped), `head` is the mask of the head atoms, and each
    other field is the mask of the atoms under one kind of body literal:
    `pos`, `not1` and `not2` under an objective literal with 0, 1 and 2
    default negations; `k` and `m` under `K a` and `M a`; and the rest under
    the other subjective literals, by what they ask of their atom: true at
    every point, false at some (`not K a`, `M not a`), true at some, or true
    at none (`K not a`, `not M a`).
    """
    head = sum(bit[a] for a in rule.head)
    pos = not1 = not2 = k = m = every = not_every = some = none = 0
    dead = False
    for lit in rule.body:
        if isinstance(lit, ObjLit):
            value = const_truth(lit)
            if value is not None:
                dead = dead or not value
            elif lit.negs == 0:
                pos |= bit[lit.base]
            elif lit.negs == 1:
                not1 |= bit[lit.base]
            else:
                not2 |= bit[lit.base]
        elif not lit.neg and lit.inner.negs == 0:
            if lit.modality == "K":
                k |= bit[lit.atom]
            else:
                m |= bit[lit.atom]
        else:
            # the truth the inner literal wants of its atom, at every point
            # (K) or at some (M); a leading `not` flips both
            want = (lit.inner.negs % 2 == 0) != lit.neg
            at_every = (lit.modality == "K") != lit.neg
            atom = bit[lit.atom]
            if at_every and want:
                every |= atom
            elif at_every:
                none |= atom
            elif want:
                some |= atom
            else:
                not_every |= atom
    return dead, head, pos, not1, not2, k, m, every, not_every, some, none


def _and_or(masks) -> tuple[int, int]:
    """The AND (-1 for none) and the OR of some masks."""
    conj, disj = -1, 0
    for mask in masks:
        conj &= mask
        disj |= mask
    return conj, disj


def _point_rules(rules, point: int, w_and: int, w_or: int) -> list[tuple[int, int, int, int]]:
    """The "here" parts (pos, k, m, head) of the rules whose total reads hold
    at `point`, in a world view whose points have AND `w_and` and OR `w_or`."""
    return [
        (pos, k, m, head)
        for dead, head, pos, not1, not2, k, m, every, not_every, some, none in rules
        if not dead
        and not point & not1
        and point & not2 == not2
        and w_and & every == every
        and not w_and & not_every
        and w_or & some == some
        and not w_or & none
    ]


def _violated(rules, here: int, h_and: int, h_or: int) -> bool:
    """Whether one of a point's `_point_rules` fails at it, given its
    here-value and the AND and OR of h over the world view."""
    return any(
        here & pos == pos and h_and & k == k and h_or & m == m and not here & head
        for pos, k, m, head in rules
    )


class ObjectiveMasks(NamedTuple):
    """An objective program as the stable-model walk reads it: its atoms in
    canonical order (bit i stands for `atoms[i]`) and the (head, pos, not1,
    not2) masks of its live rules, in rule order.  Programs with equal masks
    have equal stable models."""

    atoms: tuple[Atom, ...]
    rules: tuple[tuple[int, int, int, int], ...]


MAX_ATOMS = 20  # stable-model search over 2^n interpretations; the one cap the CLI sets


def compile_objective(program: Program) -> ObjectiveMasks:
    """The masks of an objective program; CapacityError past the atom cap,
    NotObjectiveError on a subjective literal."""
    bits = AtomBits(capped_atoms(program, MAX_ATOMS, "exhaustive-search"))
    compiled = []
    for rule in program.rules:
        dead, head, pos, not1, not2, *subjective = compile_rule(rule, bits.bit)
        if any(subjective):
            lit = next(l for l in rule.body if isinstance(l, SubjLit))
            raise NotObjectiveError(f"subjective literal {lit} in stable-model search")
        if not dead:
            compiled.append((head, pos, not1, not2))
    return ObjectiveMasks(bits.atoms, tuple(compiled))


def _stable_masks(masks: ObjectiveMasks) -> frozenset[Interpretation]:
    """All ⊆-minimal models I of the reduct w.r.t. I, over the atoms.

    A compiled rule survives the reduct for candidate mask m iff m & not1 == 0
    and m & not2 == not2; its reduct is then head <- pos.
    """
    atoms, rules = masks
    models = []
    for m in range(1 << len(atoms)):
        reduct = [
            (head, pos)
            for (head, pos, not1, not2) in rules
            if not (m & not1) and (m & not2) == not2
        ]
        if any((m & pos) == pos and not (m & head) for head, pos in reduct):
            continue
        # minimality: any model among proper submasks disqualifies m
        minimal = True
        if m:
            sub = (m - 1) & m
            while True:
                if not any((sub & pos) == pos and not (sub & head) for head, pos in reduct):
                    minimal = False
                    break
                if sub == 0:
                    break
                sub = (sub - 1) & m
        if minimal:
            models.append(frozenset(a for i, a in enumerate(atoms) if m >> i & 1))
    return frozenset(models)


def stable_models(program: Program) -> frozenset[Interpretation]:
    """All stable models of an objective program over its atom universe.

    The search goes through the run memo, keyed by the compiled form: inside
    an open `engine.solve_memo()` each distinct `ObjectiveMasks` is searched
    once, whichever program, guess, semantics or check compiled to it.  The
    atom cap and `NotObjectiveError` are raised by `compile_objective`,
    before the memo is read, so a program they refuse is refused on every
    call and nothing is stored for it."""
    return engine.once(_stable_masks, compile_objective(program))


def stable_models_ref(program: Program) -> frozenset[Interpretation]:
    """Independent oracle path: minimal models taken over all subsets."""
    atoms = capped_atoms(program, MAX_ATOMS, "exhaustive-search")
    interps = list(subsets(atoms))
    result = []
    for candidate in interps:
        reduct = objective_reduct(program, candidate)
        all_models = [i for i in interps if classical_satisfies(i, reduct)]
        minimal = [i for i in all_models if not any(j < i for j in all_models)]
        if candidate in minimal:
            result.append(candidate)
    return frozenset(result)


@dataclass
class Split:
    U: frozenset[Atom]
    bottom: Program
    top: Program


def partition(program: Program, U, placement: str, top_atoms, error: type) -> Split:
    """Split the rules on U: a bottom rule has all its `atoms` in U, a top
    rule has none of `top_atoms(rule)` in U.  `placement` decides where rules
    satisfying both (constraints on U) go; rules satisfying neither are
    raised as `error`."""
    if placement not in ("bottom", "top"):
        raise ValueError(f"placement must be 'bottom' or 'top', got {placement!r}")
    U = frozenset(U)
    bottom, top = [], []
    violators = []
    for rule in program.rules:
        cond_i = rule.atoms <= U
        cond_ii = not (top_atoms(rule) & U)
        if not (cond_i or cond_ii):
            violators.append(rule)
            continue
        side = placement if cond_i and cond_ii else "bottom" if cond_i else "top"
        (bottom if side == "bottom" else top).append(rule)
    if violators:
        raise error(violators)
    return Split(U, Program.of(bottom), Program.of(top))


def objective_split(program: Program, U, placement: str = "bottom") -> Split:
    """Splitting set (Lifschitz & Turner): the top may read U through any
    body literal but must not define it."""
    return partition(program, U, placement, lambda rule: rule.head, NotASplittingSet)


def simplify_top(top: Program, U, interp: Interpretation) -> Program:
    """Replace every atom of U in the top by ⊤ if it holds in interp, else ⊥."""
    U = frozenset(U)

    def sub(lit: ObjLit) -> ObjLit:
        if isinstance(lit, SubjLit):
            raise NotObjectiveError(f"subjective literal {lit} in objective top")
        if lit.atom in U:
            return ObjLit(TOP if lit.base in interp else BOT, lit.negs)
        return lit

    rules = []
    for rule in top.rules:
        if rule.head & U:
            raise NotASplittingSet([rule])
        rules.append(Rule(rule.head, tuple(sub(l) for l in rule.body)))
    return Program.of(rules)


def split_solutions(split: Split, solve, simplify) -> Iterator[tuple]:
    """The solutions of a split: each answer `solve` gives the bottom, paired
    with each answer it gives the top after `simplify(split, bottom answer)`;
    equal simplified tops are solved once.  With stable models and
    `simplify_top` this is Lifschitz & Turner's splitting theorem, with world
    views and the subjective reduct it is epistemic splitting."""
    tops: dict[Program, frozenset] = {}
    for bottom in solve(split.bottom):
        top = simplify(split, bottom)
        if top not in tops:
            tops[top] = solve(top)
        for answer in tops[top]:
            yield bottom, answer


def objective_solutions(
    program: Program,
    U,
    placement: str = "bottom",
) -> frozenset[tuple[Interpretation, Interpretation]]:
    """All pairs (I_b, I_t) with I_b stable in the bottom and I_t stable in the
    simplified top."""
    split = objective_split(program, U, placement)
    pairs = split_solutions(split, stable_models, lambda s, i_b: simplify_top(s.top, s.U, i_b))
    return frozenset(pairs)
