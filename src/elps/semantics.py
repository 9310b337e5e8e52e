"""World views for the reduct-based semantics G91, G11 and K15 and the
selection-based S17, each with a brute-force oracle.

The fast path guesses a truth value for every distinct subjective-literal
core, builds the corresponding reduct, and accepts the stable-model set iff
it reproduces the guess.  The guess space is over cores, not occurrences:
the reducts only depend on whether the candidate world view satisfies each
core.  Verification always re-evaluates every core against the computed
world view; the K-implies-M pruning is an optimisation on top.

The brute-force oracles enumerate candidate world views directly against the
defining fixpoint (no guessing) and are the provenance source for the
randomized differential tests.
"""

from __future__ import annotations

import enum
from typing import Mapping

from .config import DEFAULT_LIMITS, SolverLimits
from .errors import CapacityError, UnsupportedMLiteral
from .modal import WorldView, candidate_world_views, modal_satisfies, subjective_reduct
from .objective import stable_models
from .syntax import (
    BOT,
    TOP,
    ObjLit,
    Program,
    Rule,
    SubjLit,
    capped_atoms,
    default_negate,
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
    for rule in program.rules:
        for lit in rule.body_sub:
            if lit.modality == "M":
                raise _m_literal_error(lit, semantics)


def evaluate_cores(program: Program, wv: WorldView) -> dict[SubjLit, bool]:
    return {core: modal_satisfies(wv, frozenset(), core) for core in subjective_cores(program)}


def semantics_reduct(program: Program, guess: ModalGuess, semantics: SemanticsId) -> Program:
    """Reduct of the program under a guessed truth value per subjective core.

    Under G11 and K15 an M literal raises UnsupportedMLiteral when this pass
    reaches it; a separate scan of the program would be repeated for every
    guess of `world_views`.
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
    return Program.of(rules, program.extra_atoms)


def _consistent(guess: dict[SubjLit, bool]) -> bool:
    # K l true forces M l true whenever both cores occur (wv is non-empty)
    for core, value in guess.items():
        if core.modality == "K" and value:
            twin = SubjLit("M", core.inner)
            if guess.get(twin) is False:
                return False
    return True


def world_views(
    program: Program,
    semantics: SemanticsId,
    limits: SolverLimits = DEFAULT_LIMITS,
) -> frozenset[WorldView]:
    """Guess-and-check world views for the reduct-based semantics."""
    if semantics not in _REDUCT_SEMANTICS:
        raise ValueError(f"world_views handles G91/G11/K15, not {semantics}")
    if semantics is not SemanticsId.G91:
        require_m_free(program, semantics)
    cores = subjective_cores(program)
    if 2 ** len(cores) > limits.max_guesses:
        raise CapacityError(
            f"{len(cores)} subjective cores exceed the guess cap of {limits.max_guesses}"
        )
    accepted = set()
    for bits in range(1 << len(cores)):
        guess = {core: bool(bits & (1 << i)) for i, core in enumerate(cores)}
        if not _consistent(guess):
            continue
        reduct = semantics_reduct(program, guess, semantics)
        models = stable_models(reduct, limits)
        if not models:
            continue
        wv = WorldView(models)
        if all(modal_satisfies(wv, frozenset(), core) == value for core, value in guess.items()):
            accepted.add(wv)
    return frozenset(accepted)


def _maximal_epistemic_negation(program: Program, base: frozenset[WorldView]) -> frozenset[WorldView]:
    """The S17 selection: the views of `base` whose set of satisfied epistemic
    negations `not K l` (one per subjective core) is ⊆-maximal."""
    e_pi = [SubjLit("K", core.inner, neg=True) for core in subjective_cores(program)]
    phis = {wv: frozenset(l for l in e_pi if modal_satisfies(wv, frozenset(), l)) for wv in base}
    return frozenset(wv for wv in base if not any(phis[other] > phis[wv] for other in base))


def s17_world_views(program: Program, limits: SolverLimits = DEFAULT_LIMITS) -> frozenset[WorldView]:
    """K15 world views whose satisfied epistemic-negation set is ⊆-maximal."""
    require_m_free(program, SemanticsId.S17)
    return _maximal_epistemic_negation(program, world_views(program, SemanticsId.K15, limits))


def brute_world_views(
    program: Program,
    semantics: SemanticsId,
    limits: SolverLimits = DEFAULT_LIMITS,
) -> frozenset[WorldView]:
    """Oracle for G91/G11/K15: every non-empty candidate world view checked
    against the defining fixpoint, with no guessing.  G91 takes the subjective
    reduct of the candidate, G11/K15 their reduct under its core values."""
    if semantics is not SemanticsId.G91:
        require_m_free(program, semantics)
    atoms = capped_atoms(program, limits.brute_max_atoms, "brute-force")
    found = set()
    for wv in candidate_world_views(atoms):
        if semantics is SemanticsId.G91:
            reduct = subjective_reduct(program, wv)
        else:
            reduct = semantics_reduct(program, evaluate_cores(program, wv), semantics)
        if stable_models(reduct, limits) == wv.interps:
            found.add(wv)
    return frozenset(found)


def s17_brute_world_views(program: Program, limits: SolverLimits = DEFAULT_LIMITS) -> frozenset[WorldView]:
    """Oracle for S17: the maximality selection over the brute-forced K15 views."""
    return _maximal_epistemic_negation(program, brute_world_views(program, SemanticsId.K15, limits))
