"""The semantics registry: for each semantics, its direct solver, its
brute-force oracle, whether it accepts M literals, whether it satisfies
epistemic splitting, and the random programs the property matrix samples for
it.  No other module chooses these by semantics.

`compute_world_views` and `brute_force_world_views` scan a program once for
M literals under a semantics that does not accept them (g11, k15, s17) and
raise `UnsupportedMLiteral` naming that semantics, before any guess.

Entries call the solvers through their modules' attributes at call time, so
a function rebound on its module (for tracing, say) is the one that runs.

`solve` is the one place that chooses how a program is solved.  Under a
semantics marked `splitting` (g91 and c19) it decomposes before it guesses:
`splitting.component_world_views` runs the semantics' `direct`
whole-program solver on one closed component at a time (a top once per
distinct simplification) and pairs the world views by `split_solutions`,
exact by the epistemic splitting theorem.  No `direct` splits.  On a
component that does not split further the G91 guess loop searches stable
models once per distinct compiled reduct (`semantics.g91_reducts`).  C19's
`direct` reads its G91 base views off G91's `direct` on the same component,
so a C19 solve decomposes once and inherits that search.  The other
semantics fail splitting on the paper's counterexamples, so `solve` gives
the whole program to their `direct` solver.  F15's solver takes its
candidates from the same G91 grouping; under G11, K15 and S17 each guess
gets its own search outside a run memo.

`solve_memo()` opens a run memo for a `with` block; `once(fn, *args)` alone
reads and writes it, computing `fn(*args)` once for equal arguments.  What a
run repeats goes through `once`: `solve` (every solver reads world views
through it), the component split, the `direct` solve of a component (which
G91 and C19's base share), every stable-model search (`objective.stable_models`,
keyed by the compiled program, so G11 and K15 guesses, the semantics and the
checks of a run share one search per distinct `ObjectiveMasks`), and a
matrix build's fixture parses, random samples, splitting sets and
`is_founded`.  Nothing is memoized outside such a block.  A solve is keyed
by (program, semantics) alone, not by the caps they are solved under, so a
cap such as `objective.MAX_ATOMS` must not change while a memo is open (the
CLI sets it before it opens one).
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, Iterator

from . import eht, foundedness, semantics, splitting
from .generators import GeneratorShape
from .modal import WorldView
from .semantics import SemanticsId
from .syntax import Program

Solver = Callable[[Program], frozenset[WorldView]]


@dataclass(frozen=True)
class SemanticsEntry:
    direct: Solver  # the guess loop (and selection) on the whole program, never split
    oracle: Solver  # independent brute-force route the differential tests compare against
    accepts_m: bool  # defined for M literals; the others are for K-literals only
    splitting: bool  # satisfies epistemic splitting (the source paper's table), so `solve` goes by components
    shape: GeneratorShape  # random programs the property matrix samples
    founded: bool = False  # every world view is founded by construction


def _reduct_based(sem: SemanticsId, splits: bool, shape: GeneratorShape) -> SemanticsEntry:
    return SemanticsEntry(
        direct=lambda p: semantics.world_views(p, sem),
        oracle=lambda p: semantics.brute_world_views(p, sem),
        accepts_m=sem is SemanticsId.G91,
        splitting=splits,
        shape=shape,
    )


_M_SHAPE = GeneratorShape(n_atoms=4, max_rules=4, subjective_prob=0.45, m_prob=0.2)
_K_SHAPE = GeneratorShape(n_atoms=4, max_rules=4, subjective_prob=0.45)  # K-only semantics

REGISTRY: dict[SemanticsId, SemanticsEntry] = {
    SemanticsId.G91: _reduct_based(SemanticsId.G91, splits=True, shape=_M_SHAPE),
    SemanticsId.G11: _reduct_based(SemanticsId.G11, splits=False, shape=_K_SHAPE),
    SemanticsId.K15: _reduct_based(SemanticsId.K15, splits=False, shape=_K_SHAPE),
    SemanticsId.S17: SemanticsEntry(
        direct=lambda p: semantics.s17_world_views(p),
        oracle=lambda p: semantics.s17_brute_world_views(p),
        accepts_m=False,
        splitting=False,
        shape=_K_SHAPE,
    ),
    # a selection over the G91 guess loop's candidates; the oracle walks every total model
    SemanticsId.F15: SemanticsEntry(
        direct=lambda p: eht.f15_world_views(p),
        oracle=lambda p: eht.f15_brute_world_views(p),
        accepts_m=True,
        splitting=False,
        shape=GeneratorShape(n_atoms=eht.F15_MAX_ATOMS, max_rules=3, subjective_prob=0.45),
    ),
    SemanticsId.C19: SemanticsEntry(
        direct=lambda p: foundedness.c19_world_views(p),
        oracle=lambda p: foundedness.c19_brute_world_views(p),
        accepts_m=True,
        splitting=True,
        shape=_M_SHAPE,
        founded=True,
    ),
}

# (fn, *args) -> fn(*args), while a memo is open; a context variable, so a
# memo opened in one thread is not seen by another
_memo: ContextVar[dict | None] = ContextVar("solve_memo", default=None)
_MISSING = object()


@contextmanager
def solve_memo() -> Iterator[None]:
    """Open a run memo for `once` until the block exits, however it exits."""
    token = _memo.set({})
    try:
        yield
    finally:
        _memo.reset(token)


def once(fn: Callable, *args):
    """`fn(*args)`, computed once per open memo for equal arguments, else a
    plain call.  A call that raised is not stored, so it is made again."""
    memo = _memo.get()
    if memo is None:
        return fn(*args)
    key = (fn, *args)
    value = memo.get(key, _MISSING)
    if value is _MISSING:
        value = memo[key] = fn(*args)
    return value


def _accepting(program: Program, sem: SemanticsId) -> SemanticsEntry:
    """The entry of `sem`, once `program` is in its language."""
    entry = REGISTRY[sem]
    if not entry.accepts_m:
        semantics.require_m_free(program, sem)
    return entry


def _solve(program: Program, sem: SemanticsId) -> frozenset[WorldView]:
    """The world views of a program: by components under a semantics that
    satisfies epistemic splitting, else by its direct solver."""
    entry = REGISTRY[sem]
    if entry.splitting:
        return splitting.component_world_views(program, sem)
    return entry.direct(program)


def solve(program: Program, semantics: SemanticsId) -> frozenset[WorldView]:
    """The world views of a program in the semantics' language, from the
    open memo when there is one."""
    return once(_solve, program, semantics)


def compute_world_views(program: Program, semantics: SemanticsId) -> frozenset[WorldView]:
    _accepting(program, semantics)
    return solve(program, semantics)


def brute_force_world_views(program: Program, semantics: SemanticsId) -> frozenset[WorldView]:
    """World views from the semantics' oracle: candidate world views checked
    against the defining condition, with no guessing."""
    return _accepting(program, semantics).oracle(program)
