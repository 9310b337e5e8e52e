"""World views for the reduct-based semantics G91, G11 and K15 and the
selection-based S17, each with a brute-force oracle.

The fast path guesses a truth value for every distinct subjective-literal
core, builds the corresponding reduct, and accepts the stable-model set iff
it reproduces the guess.  The guess space is over cores, not occurrences:
the reducts only depend on whether the candidate world view satisfies each
core.  Verification always re-evaluates every core against the computed
world view.  On top of that, a guess that makes `K l` true and `M l` false
is skipped unchecked, since a non-empty world view that satisfies `K l`
satisfies `M l`: the loop finds the pairs of core bits (`K l`, `M l`) once,
and each guess is tested against them on its bits alone.

Under G91 the guesses are grouped by the compiled form of their reduct
(`objective.compile_objective`, `g91_reducts`), and each form's stable
models are searched once.  The argument: a G91 guess only keeps or deletes
rules, since each subjective literal becomes ⊤ or ⊥; equal compiled reducts
have equal stable models, so equal world views and equal core values; and a
guess is accepted iff it equals those core values, so a form accepts its
view iff the view's core bits are among the form's guesses.  The same
grouping gives F15 its candidates (`eht`): the non-empty sets of a form's
stable models whose core bits are among its guesses.  C19 (`foundedness`)
selects among G91's world views and S17 among K15's, so every semantics
past the three reducts is a selection over one of their guess loops.

The brute-force oracles enumerate candidate world views directly against the
defining fixpoint (no guessing) and are the provenance source for the
randomized differential tests.
"""

from __future__ import annotations

import enum
from typing import Iterator, Mapping

from . import engine, objective
from .errors import CapacityError, UnsupportedMLiteral
from .modal import WorldView, candidate_world_views, modal_satisfies, subjective_reduct
from .objective import ObjectiveMasks, compile_objective, stable_models
from .syntax import (
    BOT,
    TOP,
    ObjLit,
    Program,
    Rule,
    SubjLit,
    capped_atoms,
    default_negate,
    subsets,
)


class SemanticsId(enum.Enum):
    G91 = "g91"
    G11 = "g11"
    K15 = "k15"
    S17 = "s17"
    F15 = "f15"
    C19 = "c19"

    @classmethod
    def from_string(cls, text: str) -> "SemanticsId":
        try:
            return cls(text.lower())
        except ValueError:
            names = ", ".join(s.value for s in cls)
            raise ValueError(f"unknown semantics {text!r}; expected one of {names}") from None

    def __str__(self) -> str:
        return self.value


ModalGuess = Mapping[SubjLit, bool]

_REDUCT_SEMANTICS = (SemanticsId.G91, SemanticsId.G11, SemanticsId.K15)


def subjective_cores(program: Program) -> tuple[SubjLit, ...]:
    cores = {l.core() for r in program.rules for l in r.body_sub}
    return tuple(sorted(cores, key=str))


def _m_literal_error(lit: SubjLit, semantics: SemanticsId) -> UnsupportedMLiteral:
    return UnsupportedMLiteral(
        f"{semantics} is defined for K-literals only; found {lit} (rewrite with eliminate_m first)"
    )


def require_m_free(program: Program, semantics: SemanticsId):
    """Raise UnsupportedMLiteral on the program's first M literal; the engine
    calls this once per solve for a semantics that does not accept M."""
    for rule in program.rules:
        for lit in rule.body_sub:
            if lit.modality == "M":
                raise _m_literal_error(lit, semantics)


def evaluate_cores(program: Program, wv: WorldView) -> dict[SubjLit, bool]:
    return {core: modal_satisfies(wv, frozenset(), core) for core in subjective_cores(program)}


def semantics_reduct(program: Program, guess: ModalGuess, semantics: SemanticsId) -> Program:
    """Reduct of the program under a guessed truth value per subjective core.

    Under G11 and K15 an M literal raises UnsupportedMLiteral when this pass
    reaches it.  The engine has scanned the program once before solving; a
    direct caller of `world_views` or the oracles gets the error here, since
    their first guess (or candidate) always reaches this pass.
    """
    if semantics not in _REDUCT_SEMANTICS:
        raise ValueError(f"no reduct is defined for {semantics}")
    g91 = semantics is SemanticsId.G91
    rules = []
    for rule in program.rules:
        body = []
        for lit in rule.body:
            if not isinstance(lit, SubjLit):
                body.append(lit)
                continue
            if not g91 and lit.modality == "M":
                raise _m_literal_error(lit, semantics)
            value = guess[lit.core()]
            if g91:
                body.append(ObjLit(TOP if value else BOT, 1 if lit.neg else 0))
            elif not value:
                # false K l becomes ⊥ everywhere, also under `not`
                body.append(ObjLit(BOT, 1 if lit.neg else 0))
            elif semantics is SemanticsId.G11:
                # a true K l becomes l; `not K l` is then unsatisfied, so its rule goes
                body.append(ObjLit(BOT) if lit.neg else lit.inner)
            else:  # K15: remaining K l becomes l, an outer `not` keeps wrapping
                body.append(default_negate(lit.inner) if lit.neg else lit.inner)
        rules.append(Rule(rule.head, tuple(body)))
    return Program.of(rules)


def _view(models, cores) -> tuple[WorldView | None, int]:
    """The world view of a set of stable models (None if the set is empty),
    with the guess that view makes true: bit i set iff it satisfies cores[i]
    (-1 for None, which makes no guess true).  A guess is accepted iff it
    equals the second value for its reduct's stable models."""
    if not models:
        return None, -1
    wv = WorldView(models)
    return wv, sum(1 << i for i, core in enumerate(cores) if modal_satisfies(wv, frozenset(), core))


MAX_GUESSES = 4096  # modal guesses (2^#cores) per guess loop; world views per answer


def _guesses(program: Program, cores, semantics: SemanticsId) -> Iterator[tuple[int, Program]]:
    """(bits, reduct) for each guess at `cores`, bit i the value of cores[i];
    CapacityError past the guess cap, before the first.  A non-empty world
    view that satisfies `K l` satisfies `M l`, so a guess that sets the bit
    of a core `K l` and clears that of its twin `M l` is skipped unchecked."""
    if 2 ** len(cores) > MAX_GUESSES:
        raise CapacityError(f"{len(cores)} subjective cores exceed the guess cap of {MAX_GUESSES}")
    bit = {core: 1 << i for i, core in enumerate(cores)}
    twins = [
        (k, bit[m]) for core, k in bit.items() if core.modality == "K" and (m := SubjLit("M", core.inner)) in bit
    ]
    for bits in range(1 << len(cores)):
        if twins and any(bits & k and not bits & m for k, m in twins):
            continue
        guess = {core: bool(bits & b) for core, b in bit.items()}
        yield bits, semantics_reduct(program, guess, semantics)


def g91_reducts(program: Program, cores) -> Iterator[tuple[frozenset, set[int]]]:
    """The G91 guesses at `cores` grouped by compiled reduct: for each
    distinct `compile_objective` form, its stable models (searched through
    the run memo) and the bits of the guesses whose reduct it is."""
    guesses: dict[ObjectiveMasks, set[int]] = {}
    for bits, reduct in _guesses(program, cores, SemanticsId.G91):
        guesses.setdefault(compile_objective(reduct), set()).add(bits)
    for key, bits in guesses.items():
        yield engine.once(objective._stable_masks, key), bits


def world_views(program: Program, semantics: SemanticsId) -> frozenset[WorldView]:
    """Guess-and-check world views for the reduct-based semantics.  Under
    all three a guess is accepted iff its reduct has stable models whose
    world view makes exactly the guessed cores true: the core bits `_view`
    reads off that view are the guess.  Under G91 the guesses come grouped
    by compiled reduct (`g91_reducts`, module docstring), and a group's view
    is accepted iff its bits are among the group's guesses.
    Under G11 and K15 a true `K l` becomes `l`, so outside a run memo each
    guess gets its own search (inside one, `stable_models` searches each
    compiled reduct once per run).  They are not grouped, because the
    benchmark keeps every operation's record, so the speed it buys shows up
    as `peak_rss_mb` past its bound until that is fixed (ROADMAP item 1)."""
    if semantics not in _REDUCT_SEMANTICS:
        raise ValueError(f"world_views handles G91/G11/K15, not {semantics}")
    cores = subjective_cores(program)
    if semantics is SemanticsId.G91:
        groups = g91_reducts(program, cores)
    else:
        groups = ((stable_models(reduct), (bits,)) for bits, reduct in _guesses(program, cores, semantics))
    accepted = set()
    for models, guesses in groups:
        wv, own = _view(models, cores)
        if own in guesses:
            accepted.add(wv)
    return frozenset(accepted)


def _maximal_epistemic_negation(program: Program, base: frozenset[WorldView]) -> frozenset[WorldView]:
    """The S17 selection: the views of `base` whose set of satisfied epistemic
    negations `not K l` (one per subjective core) is ⊆-maximal."""
    e_pi = [SubjLit("K", core.inner, neg=True) for core in subjective_cores(program)]
    phis = {wv: frozenset(l for l in e_pi if modal_satisfies(wv, frozenset(), l)) for wv in base}
    return frozenset(wv for wv in base if not any(phis[other] > phis[wv] for other in base))


def s17_world_views(program: Program) -> frozenset[WorldView]:
    """K15 world views whose satisfied epistemic-negation set is ⊆-maximal;
    the K15 views come from `engine.solve`, so a memo open around the solve
    shares them with K15."""
    return _maximal_epistemic_negation(program, engine.solve(program, SemanticsId.K15))


BRUTE_MAX_ATOMS = 4  # direct world-view enumeration over 2^(2^n) candidates


def brute_world_views(program: Program, semantics: SemanticsId) -> frozenset[WorldView]:
    """Oracle for G91/G11/K15: every non-empty candidate world view checked
    against the defining fixpoint, with no guessing.  G91 takes the subjective
    reduct of the candidate, G11/K15 their reduct under its core values."""
    atoms = capped_atoms(program, BRUTE_MAX_ATOMS, "brute-force")
    found = set()
    for wv in candidate_world_views(subsets(atoms)):
        if semantics is SemanticsId.G91:
            reduct = subjective_reduct(program, wv)
        else:
            reduct = semantics_reduct(program, evaluate_cores(program, wv), semantics)
        if stable_models(reduct) == wv.interps:
            found.add(wv)
    return frozenset(found)


def s17_brute_world_views(program: Program) -> frozenset[WorldView]:
    """Oracle for S17: the maximality selection over the brute-forced K15 views."""
    return _maximal_epistemic_negation(program, brute_world_views(program, SemanticsId.K15))
