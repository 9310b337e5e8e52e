"""Seeded workload generators and solver-independent reference answers.

Every workload is an endless sequence of *cycles*; a cycle is a fixed mix of
operation shapes, so a run that completes whole cycles measures the same mix
whatever the seed.  The seed decides the atom names, the rule order and, for
`epistemic_blocks`, the random block contents.  Every operation carries fresh
atom names (its index is part of every name), so no cache kept across calls
can answer it.  Generation iterates only over lists and sorted keys, never
over hashed sets, so a seed gives byte-identical program texts in every
interpreter.

An answer is compared in canonical form: a frozenset of world views, each a
frozenset of interpretations, each a frozenset of atom names.
"""

from __future__ import annotations

import itertools
import random
import string
from dataclasses import dataclass
from typing import Callable, Iterator

Answer = frozenset  # frozenset[frozenset[frozenset[str]]]

SOLVER_SEMANTICS = ("g91", "g11", "k15", "s17", "c19")


@dataclass(frozen=True)
class Op:
    """One operation: a program text solved under one semantics."""

    shape: str
    text: str
    semantics: str
    reference: Callable[[], Answer]


@dataclass(frozen=True)
class MatrixOp:
    """One `build_property_matrix(seed=matrix_seed, count=MATRIX_COUNT)` call."""

    matrix_seed: int


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _prefix(rng: random.Random, index: int) -> str:
    tag = "".join(rng.choice(string.ascii_lowercase) for _ in range(4))
    return f"q{index}{tag}_"


def _cycle(k: int) -> list[tuple[int, int]]:
    return [(v, (v + 1) % k) for v in range(k)]


def _independent_sets(k: int) -> list[tuple[int, ...]]:
    return [
        s
        for r in range(k + 1)
        for s in itertools.combinations(range(k), r)
        if all(not (u in s and w in s) for u, w in _cycle(k))
    ]


def _render(rules: list[str], rng: random.Random) -> str:
    rules = list(rules)
    rng.shuffle(rules)
    return "\n".join(rules) + "\n"


def _single_view(models: list[frozenset[str]]) -> Answer:
    """Answer of an objective program: its stable models form the only view."""
    return frozenset([frozenset(models)]) if models else frozenset()


# ---------------------------------------------------------------------------
# asp_connected
#
# Why: objective programs of 12-18 atoms under g91 have no subjective core,
# so the guess loop runs exactly once and `objective.stable_models` does
# nearly all the work; foundedness and EHT do none.  Both families are
# connected (a cycle), so no splitting can decompose them.


def colouring_program(k: int, prefix: str) -> list[str]:
    """3-colouring of the cycle C_k: disjunctive choice plus edge constraints."""
    rules = [f"{prefix}r{v} | {prefix}g{v} | {prefix}b{v}." for v in range(k)]
    for u, w in _cycle(k):
        for c in "rgb":
            rules.append(f":- {prefix}{c}{u}, {prefix}{c}{w}.")
    return rules


def colouring_models(k: int, prefix: str) -> list[frozenset[str]]:
    """Proper 3-colourings of C_k, enumerated directly."""
    return [
        frozenset(f"{prefix}{c}{v}" for v, c in enumerate(colours))
        for colours in itertools.product("rgb", repeat=k)
        if all(colours[u] != colours[w] for u, w in _cycle(k))
    ]


def independent_set_program(k: int, prefix: str) -> list[str]:
    """Independent sets of C_k: an even negative loop per vertex plus edges."""
    rules = []
    for v in range(k):
        rules.append(f"{prefix}in{v} :- not {prefix}out{v}.")
        rules.append(f"{prefix}out{v} :- not {prefix}in{v}.")
    for u, w in _cycle(k):
        rules.append(f":- {prefix}in{u}, {prefix}in{w}.")
    return rules


def independent_set_models(k: int, prefix: str) -> list[frozenset[str]]:
    return [
        frozenset(f"{prefix}in{v}" if v in s else f"{prefix}out{v}" for v in range(k))
        for s in _independent_sets(k)
    ]


# (family, k): colouring has 3k atoms, independent sets 2k atoms; 12-18
# atoms.  colour_k5 is the middle shape by time; three copies give the median
# three samples per cycle.
ASP_SHAPES = (
    ("colour", 4), ("colour", 5), ("colour", 5), ("colour", 5), ("colour", 6),
    ("indep", 6), ("indep", 7), ("indep", 8), ("indep", 9),
)


def asp_connected(seed: int) -> Iterator[list[Op]]:
    rng = _rng("asp_connected", seed)
    index = 0
    while True:
        cycle = []
        for family, k in ASP_SHAPES:
            prefix = _prefix(rng, index)
            index += 1
            if family == "colour":
                text = _render(colouring_program(k, prefix), rng)
                ref = (lambda k=k, p=prefix: _single_view(colouring_models(k, p)))
            else:
                text = _render(independent_set_program(k, prefix), rng)
                ref = (lambda k=k, p=prefix: _single_view(independent_set_models(k, p)))
            cycle.append(Op(f"{family}_k{k}", text, "g91", ref))
        yield cycle


# ---------------------------------------------------------------------------
# epistemic_ring
#
# Why: in `a_i :- not K not a_i, not K a_{i+1}.` every core sits in one
# strongly connected component of the modal dependency graph, so splitting
# cannot decompose it and the raw guess loop (2^(2k) guesses) stays visible.
# It is the contrast for `epistemic_blocks`: a gain that comes only from
# splitting must leave this workload unchanged.


def ring_program(k: int, prefix: str) -> list[str]:
    return [
        f"{prefix}a{i} :- not K not {prefix}a{i}, not K {prefix}a{(i + 1) % k}."
        for i in range(k)
    ]


def ring_world_views(k: int, prefix: str) -> Answer:
    """Closed form: exactly the singleton views [I] for I independent in C_k."""
    return frozenset(
        frozenset([frozenset(f"{prefix}a{i}" for i in s)]) for s in _independent_sets(k)
    )


# k = 5 under g91 is the middle shape by time; three copies put the median
# between two of them rather than on the boundary between two shapes.
RING_SHAPES = (
    (4, "g91"), (4, "c19"), (5, "g91"), (5, "g91"), (5, "g91"), (5, "c19"), (6, "g91"), (6, "c19"),
)


def epistemic_ring(seed: int) -> Iterator[list[Op]]:
    rng = _rng("epistemic_ring", seed)
    index = 0
    while True:
        cycle = []
        for k, sem in RING_SHAPES:
            prefix = _prefix(rng, index)
            index += 1
            text = _render(ring_program(k, prefix), rng)
            cycle.append(Op(f"ring_k{k}_{sem}", text, sem, lambda k=k, p=prefix: ring_world_views(k, p)))
        yield cycle


# ---------------------------------------------------------------------------
# epistemic_blocks
#
# Why: a disjoint union of small random epistemic blocks has 5-7 subjective
# cores, so the guess-and-check loop and its per-guess reducts dominate.  The
# program falls apart into independent components, which is where
# splitting-driven evaluation and guess pruning show their effect.
#
# A block is abstract: atoms are indices, a literal is ("obj", atom, negs) or
# ("K", atom, inner_negated, outer_negated).  Its reference answer is the
# brute-force oracle's answer on the block alone; the union's answer is the
# product of the blocks' answers.  The cost of a union grows as 2^cores, so
# every cycle solves the same union shapes (atoms and cores per block) with
# random rules, under one semantics; the semantics rotate from cycle to
# cycle.  An odd number of shapes puts the median inside one shape's times.

UNION_SHAPES = (
    ((2, 1), (2, 2), (2, 2)),          # 6 atoms, 5 cores
    ((2, 2), (2, 2), (2, 2)),          # 6 atoms, 6 cores
    ((2, 2), (2, 2), (3, 2)),          # 7 atoms, 6 cores
    ((2, 2), (2, 2), (3, 3)),          # 7 atoms, 7 cores
    ((2, 1), (2, 2), (2, 2), (2, 2)),  # 8 atoms, 7 cores
)


def random_block(rng: random.Random, n_atoms: int, n_cores: int) -> tuple:
    """Random rules over atoms 0..n_atoms-1 with exactly n_cores distinct
    K-cores."""
    while True:
        rules = []
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.2:
                head: tuple[int, ...] = ()
                n_body = rng.randint(1, 2)
            else:
                head = tuple(sorted(rng.sample(range(n_atoms), rng.randint(1, min(2, n_atoms)))))
                n_body = rng.randint(0, 2)
            body = []
            for _ in range(n_body):
                atom = rng.randrange(n_atoms)
                if rng.random() < 0.5:
                    body.append(("K", atom, rng.random() < 0.25, rng.random() < 0.5))
                else:
                    roll = rng.random()
                    body.append(("obj", atom, 2 if roll < 0.1 else 1 if roll < 0.55 else 0))
            rules.append((head, tuple(body)))
        if len(block_cores(rules)) == n_cores:
            return tuple(rules)


def block_cores(rules) -> set[tuple[int, bool]]:
    return {(lit[1], lit[2]) for _, body in rules for lit in body if lit[0] == "K"}


def render_block(rules, names: list[str]) -> list[str]:
    def literal(lit) -> str:
        if lit[0] == "K":
            _, atom, inner_neg, outer_neg = lit
            inner = ("not " if inner_neg else "") + names[atom]
            return ("not " if outer_neg else "") + "K " + inner
        _, atom, negs = lit
        return "not " * negs + names[atom]

    out = []
    for head, body in rules:
        text = " | ".join(names[a] for a in head)
        if body:
            text += (" " if head else "") + ":- " + ", ".join(literal(l) for l in body)
        out.append(text + ".")
    return out


def product(answers: list[Answer]) -> Answer:
    """World views of a disjoint union from those of its parts: every choice
    of one view per part, combined pointwise by union of interpretations."""
    views = []
    for choice in itertools.product(*answers):
        combined = [frozenset()]
        for view in choice:
            combined = [i | j for i in combined for j in view]
        views.append(frozenset(combined))
    return frozenset(views)


def canonical(world_views) -> Answer:
    """Solver output (a set of WorldView) in canonical form."""
    return frozenset(
        frozenset(frozenset(str(a) for a in interp) for interp in wv.interps) for wv in world_views
    )


class BlockOracle:
    """Brute-force answers per abstract block and semantics, memoised by the
    abstract block, so fresh names do not force a recomputation."""

    def __init__(self):
        self._memo: dict[tuple, Answer] = {}

    def block_answer(self, rules, semantics: str, names: list[str]) -> Answer:
        key = (rules, semantics)
        if key not in self._memo:
            import elps

            placeholder = [f"x{i}" for i in range(len(names))]
            program = elps.load_program("\n".join(render_block(rules, placeholder)) + "\n")
            wvs = elps.brute_force_world_views(program, elps.SemanticsId(semantics))
            self._memo[key] = canonical(wvs)
        rename = dict(zip((f"x{i}" for i in range(len(names))), names))
        return frozenset(
            frozenset(frozenset(rename[a] for a in interp) for interp in view)
            for view in self._memo[key]
        )

    def union_answer(self, blocks, semantics: str) -> Answer:
        return product([self.block_answer(rules, semantics, names) for rules, names in blocks])


def random_union(rng: random.Random, shape, prefix: str) -> list[tuple[tuple, list[str]]]:
    """Disjoint random blocks of the given (atoms, cores) shape, named apart."""
    return [
        (random_block(rng, n_atoms, n_cores), [f"{prefix}{j}{chr(ord('a') + i)}" for i in range(n_atoms)])
        for j, (n_atoms, n_cores) in enumerate(shape)
    ]


def epistemic_blocks(seed: int) -> Iterator[list[Op]]:
    rng = _rng("epistemic_blocks", seed)
    oracle = BlockOracle()
    index = 0
    for sem in itertools.cycle(SOLVER_SEMANTICS):
        cycle = []
        for shape in UNION_SHAPES:
            prefix = _prefix(rng, index)
            index += 1
            blocks = random_union(rng, shape, prefix)
            text = _render([r for rules, names in blocks for r in render_block(rules, names)], rng)
            cores = sum(c for _, c in shape)
            cycle.append(
                Op(f"blocks_{len(shape)}x_c{cores}_{sem}", text, sem,
                   lambda b=blocks, s=sem: oracle.union_answer(b, s))
            )
        yield cycle


# ---------------------------------------------------------------------------
# property_matrix
#
# Why: one build runs hundreds of programs of at most 4 atoms over all six
# semantics; f15/EHT equilibrium search, splitting-set enumeration and the
# fixture re-check of every build dominate.  A change that speeds up large
# enumerations but adds a cost to every call shows up here as a loss.
#
# `elps properties` samples 20 random programs per cell; a build here samples
# MATRIX_COUNT = 5.  The cost of a build varies with its random programs, and
# at 20 a run completes too few builds for a steady median (39 % spread
# between runs, against 12-22 % at 5).  The fixture corpus part of a build is
# the same at any count, and at 5 the g11 defect below still shows in about
# two builds out of three.
#
# Reference: the paper's semantics-by-property table, as pinned by the
# acceptance test of the property matrix; 24 cells are checked per build.

MATRIX_COUNT = 5

# A run of this workload makes a number of builds fixed by `--seconds`, not by
# the clock.  Whether the g11 defect shows in a build depends only on the
# build's seed, so a fixed number of builds makes the failures of a run depend
# only on `--seed`; a loop timed by the clock made them depend on how busy the
# host was.  MATRIX_BUILD_S is the raw seconds of one build on the 2-vCPU VM
# of BASELINE.md (1.7-2.0 s), so a 25-second run makes 13 builds.
MATRIX_BUILD_S = 1.9
PAPER_TABLE = {
    # columns: g91, g11, f15, k15, s17, c19
    "supra_s5": ("holds",) * 6,
    "supra_asp": ("holds",) * 6,
    "subjective_constraint_monotonicity": ("holds", "holds", "violated", "violated", "violated", "holds"),
    "epistemic_splitting": ("holds", "violated", "violated", "violated", "violated", "holds"),
}
MATRIX_COLUMNS = ("g91", "g11", "f15", "k15", "s17", "c19")
MATRIX_CELLS = sum(len(row) for row in PAPER_TABLE.values())


def property_matrix(seed: int) -> Iterator[list[MatrixOp]]:
    rng = _rng("property_matrix", seed)
    while True:
        yield [MatrixOp(rng.randrange(1, 2**31))]


def op_budget(workload: str, seconds: float) -> int | None:
    """Operations per run where that is fixed; None where the clock ends a run."""
    if workload != "property_matrix":
        return None
    return max(2, round(seconds / MATRIX_BUILD_S))


WORKLOADS = {
    "asp_connected": asp_connected,
    "epistemic_blocks": epistemic_blocks,
    "epistemic_ring": epistemic_ring,
    "property_matrix": property_matrix,
}
