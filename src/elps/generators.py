"""Seeded random program generators for the differential test suites."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .syntax import Atom, ObjLit, Program, Rule, SubjLit


@dataclass(frozen=True)
class GeneratorShape:
    n_atoms: int = 4
    max_rules: int = 5
    max_head: int = 2
    max_body: int = 3
    neg2_prob: float = 0.1       # doubled default negation on an objective literal
    neg_prob: float = 0.45       # single default negation
    subjective_prob: float = 0.4  # body literal is subjective
    m_prob: float = 0.0           # modality is M instead of K
    constraint_prob: float = 0.15
    min_subjective: int = 0       # subjective literals added to each rule that has fewer

    def __post_init__(self):
        """Refuse a shape the samplers cannot draw, by the field at fault."""
        lows = {"n_atoms": 1, "max_rules": 1, "max_head": 1, "max_body": 1, "min_subjective": 0}
        for name, low in lows.items():
            if getattr(self, name) < low:
                raise ValueError(f"GeneratorShape.{name} must be at least {low}, got {getattr(self, name)}")
        if self.n_atoms > len(_POOL):
            raise ValueError(f"GeneratorShape.n_atoms must be at most {len(_POOL)}, got {self.n_atoms}")


_POOL = tuple(Atom(name) for name in "abcdefgh")


def _atoms(shape: GeneratorShape) -> tuple[Atom, ...]:
    return _POOL[: shape.n_atoms]


def _objective_literal(rng: random.Random, atoms, shape: GeneratorShape) -> ObjLit:
    roll = rng.random()
    if roll < shape.neg2_prob:
        negs = 2
    elif roll < shape.neg2_prob + shape.neg_prob:
        negs = 1
    else:
        negs = 0
    return ObjLit(rng.choice(atoms), negs)


def _subjective_literal(rng: random.Random, atoms, shape: GeneratorShape) -> SubjLit:
    modality = "M" if rng.random() < shape.m_prob else "K"
    inner_negs = rng.choice((0, 0, 0, 1))
    return SubjLit(modality, ObjLit(rng.choice(atoms), inner_negs), neg=rng.random() < 0.5)


def _rule(rng: random.Random, atoms, shape: GeneratorShape, modal_atoms=()) -> Rule:
    """Head and objective body over `atoms`, subjective literals over
    `modal_atoms` (none when it is empty)."""
    if rng.random() < shape.constraint_prob:
        head = frozenset()
        n_body = rng.randint(1, shape.max_body)
    else:
        head = frozenset(rng.sample(atoms, min(len(atoms), rng.randint(1, shape.max_head))))
        n_body = rng.randint(0, shape.max_body)
    body = []
    for _ in range(n_body):
        if modal_atoms and rng.random() < shape.subjective_prob:
            body.append(_subjective_literal(rng, modal_atoms, shape))
        else:
            body.append(_objective_literal(rng, atoms, shape))
    if modal_atoms:
        for _ in range(shape.min_subjective - sum(isinstance(l, SubjLit) for l in body)):
            body.append(_subjective_literal(rng, modal_atoms, shape))
    return Rule(head, tuple(body))


def random_objective_program(rng: random.Random, shape: GeneratorShape) -> Program:
    atoms = _atoms(shape)
    n = rng.randint(1, shape.max_rules)
    return Program.of(_rule(rng, atoms, shape) for _ in range(n))


def random_epistemic_program(rng: random.Random, shape: GeneratorShape) -> Program:
    atoms = _atoms(shape)
    n = rng.randint(1, shape.max_rules)
    return Program.of(_rule(rng, atoms, shape, atoms) for _ in range(n))


def random_subjective_constraint(rng: random.Random, program: Program, shape: GeneratorShape) -> Rule:
    atoms = sorted(program.atoms) or list(_atoms(shape))
    body = tuple(
        _subjective_literal(rng, atoms, shape) for _ in range(rng.randint(1, 2))
    )
    return Rule(frozenset(), body)


def random_stratified_program(
    rng: random.Random,
    shape: GeneratorShape,
    n_layers: int = 3,
) -> Program:
    """Head and objective body stay inside one layer, subjective literals only
    query strictly lower layers, so the result is epistemically stratified by
    construction.  A rule is a constraint with chance `shape.constraint_prob`,
    in any layer."""
    atoms = list(_atoms(shape))
    rng.shuffle(atoms)
    n_layers = min(n_layers, len(atoms))
    layers: list[list[Atom]] = [[] for _ in range(n_layers)]
    for i, atom in enumerate(atoms):
        layers[i % n_layers].append(atom)

    rules = []
    for _ in range(rng.randint(1, shape.max_rules)):
        layer = rng.randint(0, n_layers - 1)
        below = [a for l in layers[:layer] for a in l]
        rules.append(_rule(rng, layers[layer], shape, below))
    return Program.of(rules)


def random_block(
    rng: random.Random,
    shape: GeneratorShape,
    atoms: list[Atom],
    lower: Sequence[Atom] = (),
    cross_prob: float = 0.0,
) -> list[Rule]:
    """1..`shape.max_rules` rules over `atoms`; with chance `cross_prob`, a
    rule's subjective literals may also read the atoms of `lower`."""
    rules = []
    for _ in range(rng.randint(1, shape.max_rules)):
        modal = [*atoms, *lower] if lower and rng.random() < cross_prob else atoms
        rules.append(_rule(rng, atoms, shape, modal))
    return rules


def random_block_union(
    rng: random.Random,
    shape: GeneratorShape,
    block_sizes: list[int],
    cross_prob: float = 0.0,
) -> Program:
    """One `random_block` per size, over atoms a0, b0, ... of block 0, a1,
    b1, ... of block 1 and so on; each block may read the blocks before it
    with `cross_prob`, so without it the program is a disjoint union."""
    rules: list[Rule] = []
    lower: list[Atom] = []
    for j, size in enumerate(block_sizes):
        atoms = [Atom(f"{chr(ord('a') + i)}{j}") for i in range(size)]
        rules += random_block(rng, shape, atoms, lower, cross_prob)
        lower += atoms
    return Program.of(rules)
