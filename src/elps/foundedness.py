"""Unfounded sets and founded world views; C19 = founded G91.

A pair ⟨X, I⟩ is *justified* by a rule r with Head(r) ∩ X ≠ ∅ when
  (1) the body of r holds at the modal interpretation (wv, I),
  (2) no positive objective body atom of r lies in X,
  (3) r derives no head atom outside X that is already in I, and
  (4) no atom under a positive subjective body literal of r lies in Y,
      the union of all X-components of the candidate set.

The greatest unfounded set is computed as a fixpoint: start from every pair
with I in the world view and X ∩ I ≠ ∅, repeatedly delete pairs that have a
justifying rule w.r.t. the current Y.  Deleting pairs only shrinks Y, which
only enables more justifications, so the deletion cascade is monotone and the
fixpoint is the unique ⊆-greatest unfounded set among the eligible pairs.
The fixpoint compiles the rules once per call (`objective.AtomBits` and
`objective.compile_rule`): condition (1) is the compiled total reading
(`objective._point_rules` and `objective._violated` with h the identity),
and (2) and (4) test the `pos` and `k` masks.  An independent brute-force
search, `is_founded_brute`, validates it on small instances; it reads the
rule AST through `has_justifying_rule` and `modal_satisfies`.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import engine
from .modal import WorldView, modal_satisfies
from .objective import AtomBits, Interpretation, _and_or, _point_rules, _violated, compile_rule
from .semantics import SemanticsId, brute_world_views
from .syntax import Atom, Program, Rule, capped_atoms, interp_key, subsets

FOUNDED_MAX_ATOMS = 12  # unfounded-pair fixpoint over 2^n atom sets per interpretation


@dataclass(frozen=True)
class UnfoundedPair:
    X: frozenset[Atom]
    interp: Interpretation


def positive_objective_atoms(rule: Rule) -> frozenset[Atom]:
    return frozenset(l.base for l in rule.body_obj if l.negs == 0 and l.atom is not None)


def positive_subjective_atoms(rule: Rule) -> frozenset[Atom]:
    # fully positive K-occurrences only: neither inner nor outer negation.
    # K not a (and M-forms, which rewrite to outer-negated K) provide no
    # positive modal support, so they cannot block a justification.
    return frozenset(
        l.atom
        for l in rule.body_sub
        if not l.neg and l.modality == "K" and l.inner.negs == 0
    )


def has_justifying_rule(program: Program, wv: WorldView, pair: UnfoundedPair, Y) -> bool:
    Y = frozenset(Y)
    for rule in program.rules:
        if not (rule.head & pair.X):
            continue
        if not all(modal_satisfies(wv, pair.interp, l) for l in rule.body):
            continue
        if positive_objective_atoms(rule) & pair.X:
            continue
        if (rule.head - pair.X) & pair.interp:
            continue
        if positive_subjective_atoms(rule) & Y:
            continue
        return True
    return False


def greatest_unfounded_set(program: Program, wv: WorldView) -> frozenset[UnfoundedPair]:
    """Fixpoint of justified-pair deletion; empty iff wv is founded."""
    bits = AtomBits(capped_atoms(program, FOUNDED_MAX_ATOMS, "foundedness"))
    rules = [compile_rule(r, bits.bit) for r in program.rules]
    points = [(interp, bits.mask(interp)) for interp in wv.sorted_interps]
    w_and, w_or = _and_or(p for _, p in points)

    # survivors: (x_mask, interp, justifier possub masks valid for conditions 1-3)
    survivors = []
    for interp, p in points:
        # conditions (1)-(3) do not involve Y; (1) is the compiled total
        # reading, where a rule without its head fails exactly where its
        # body holds
        bodies = [
            (head, pos, k)
            for pos, k, m, head in _point_rules(rules, p, w_and, w_or)
            if head and _violated([(pos, k, m, 0)], p, w_and, w_or)
        ]
        for x in range(1, 1 << len(bits.atoms)):
            if not (x & p):
                continue
            justifiers = [
                possub
                for head, posobj, possub in bodies
                if head & x and not (posobj & x) and not ((head & ~x) & p)
            ]
            if any(j == 0 for j in justifiers):
                continue  # justified regardless of Y
            survivors.append((x, interp, tuple(justifiers)))

    while True:
        y = 0
        for x, _, _ in survivors:
            y |= x
        remaining = [
            entry for entry in survivors if not any((p & y) == 0 for p in entry[2])
        ]
        if len(remaining) == len(survivors):
            break
        survivors = remaining

    return frozenset(UnfoundedPair(bits.interp(x), interp) for x, interp, _ in survivors)


def is_founded(program: Program, wv: WorldView) -> bool:
    return not greatest_unfounded_set(program, wv)


def is_founded_brute(program: Program, wv: WorldView) -> bool:
    """Brute-force foundedness, independent of the fixpoint computation:
    guess the union Y directly; the pairs that survive w.r.t. Y form an
    unfounded set iff their X-components cover Y exactly."""
    atoms = capped_atoms(program, FOUNDED_MAX_ATOMS, "foundedness")
    eligible = [
        UnfoundedPair(x, interp)
        for interp in wv.sorted_interps
        for x in subsets(atoms)
        if x & interp
    ]
    for y in subsets(atoms):
        if not y:
            continue
        surviving = [p for p in eligible if p.X <= y and not has_justifying_rule(program, wv, p, y)]
        if surviving and frozenset().union(*(p.X for p in surviving)) == y:
            return False
    return True


def c19_world_views(program: Program) -> frozenset[WorldView]:
    """Founded G91 world views, on the whole program.  The G91 views come
    from the G91 entry's `direct` through `engine.once`, the key under which
    `splitting.component_world_views` solves a single component, so a memo
    open around the solve shares them with G91 and nothing splits twice."""
    g91 = engine.once(engine.REGISTRY[SemanticsId.G91].direct, program)
    return frozenset(wv for wv in g91 if is_founded(program, wv))


def c19_brute_world_views(program: Program) -> frozenset[WorldView]:
    """Oracle for C19: brute-forced G91 views kept by the brute-force foundedness search."""
    return frozenset(
        wv for wv in brute_world_views(program, SemanticsId.G91) if is_founded_brute(program, wv)
    )


def unfounded_certificate(program: Program, wv: WorldView):
    """JSON-friendly dump of the greatest unfounded set (the rejection witness)."""
    pairs = greatest_unfounded_set(program, wv)
    return [
        {
            "X": list(interp_key(p.X)),
            "I": list(interp_key(p.interp)),
        }
        for p in sorted(pairs, key=lambda p: (interp_key(p.X), interp_key(p.interp)))
    ]
