"""Modal satisfaction over world views, S5 models and the subjective reduct.

A world view is a non-empty set of interpretations; K/M quantify over it and
the point interpretation handles the objective part.  Satisfaction of a
subjective literal never looks at the point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .objective import Interpretation, _objlit_truth
from .syntax import (
    BOT,
    TOP,
    Atom,
    ObjLit,
    Program,
    Rule,
    SubjLit,
    interp_key,
    subsets,
)


@dataclass(frozen=True)
class WorldView:
    interps: frozenset[Interpretation]

    def __post_init__(self):
        if not self.interps:
            raise ValueError("a world view is a non-empty set of interpretations")

    @classmethod
    def of(cls, interps: Iterable[Iterable[Atom]]) -> "WorldView":
        return cls(frozenset(frozenset(i) for i in interps))

    @property
    def sorted_interps(self) -> tuple[Interpretation, ...]:
        return tuple(sorted(self.interps, key=interp_key))

    def __len__(self) -> int:
        return len(self.interps)

    def __str__(self) -> str:
        parts = ("[" + ",".join(interp_key(i)) + "]" for i in self.sorted_interps)
        return "[" + ",".join(parts) + "]"

    def as_lists(self) -> list[list[str]]:
        return [list(interp_key(i)) for i in self.sorted_interps]


def wv_key(wv: WorldView) -> tuple:
    return tuple(interp_key(i) for i in wv.sorted_interps)


def candidate_world_views(points) -> Iterator[WorldView]:
    """Every world view made of `points`: their non-empty sets, in `subsets`
    order.  Over `subsets(atoms)` that is every world view over the atoms; a
    subsequence of those points yields a subsequence of that order."""
    for interps in subsets(points):
        if interps:
            yield WorldView(interps)


def world_views_to_json(wvs: Iterable[WorldView]) -> list[list[list[str]]]:
    return [wv.as_lists() for wv in sorted(wvs, key=wv_key)]


def modal_satisfies(wv: WorldView, point: Interpretation, construct) -> bool:
    """Satisfaction at the modal interpretation (wv, point)."""
    if isinstance(construct, ObjLit):
        return _objlit_truth(construct, point)
    if isinstance(construct, SubjLit):
        if construct.modality == "K":
            value = all(_objlit_truth(construct.inner, i) for i in wv.interps)
        else:
            value = any(_objlit_truth(construct.inner, i) for i in wv.interps)
        return not value if construct.neg else value
    if isinstance(construct, Rule):
        return any(a in point for a in construct.head) or not all(
            modal_satisfies(wv, point, l) for l in construct.body
        )
    if isinstance(construct, Program):
        return all(modal_satisfies(wv, point, r) for r in construct.rules)
    raise TypeError(f"unsupported construct {construct!r}")


def is_s5_model(wv: WorldView, program: Program) -> bool:
    """True iff every interpretation of wv satisfies every rule at itself."""
    return all(modal_satisfies(wv, i, program) for i in wv.interps)


def subjective_reduct(program: Program, wv: WorldView, U=None) -> Program:
    """Replace each subjective literal whose atom lies in U by its truth value.

    The replacement unit is the K/M-core: a leading default negation stays in
    place, wrapping the constant (so `not K a` becomes `not ⊥` when K a is
    false).  U defaults to the whole universe.
    """
    U = None if U is None else frozenset(U)
    rules = []
    for rule in program.rules:
        body = []
        for lit in rule.body:
            if isinstance(lit, SubjLit) and (U is None or lit.atom in U):
                value = modal_satisfies(wv, frozenset(), lit.core())
                body.append(ObjLit(TOP if value else BOT, 1 if lit.neg else 0))
            else:
                body.append(lit)
        rules.append(Rule(rule.head, tuple(body)))
    return Program.of(rules)
