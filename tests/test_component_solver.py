"""The component-by-component solver of g91 and c19 against the direct
whole-program guess loop (the `whole_program` fixture), and against the
brute-force oracle on small programs.

Criterion 7 checks epistemic splitting with the component solver on both
sides of the equation; this differential test keeps its verdicts resting on
the direct loop.
"""

import dataclasses
import random
from collections import Counter

import pytest

from elps import engine, modal
from elps import semantics as semantics_module
from elps import splitting
from elps.engine import REGISTRY, brute_force_world_views, compute_world_views
from elps.errors import CapacityError
from elps.generators import (
    GeneratorShape,
    random_block,
    random_block_union,
    random_epistemic_program,
    random_subjective_constraint,
)
from elps.modal import WorldView
from elps.semantics import SemanticsId, subjective_cores
from elps.splitting import (
    closed_component,
    combine,
    component_world_views,
    enumerate_epistemic_splitting_sets,
)
from elps.syntax import Atom, Program, load_program, parse_program, parse_rule

SPLITTING = (SemanticsId.G91, SemanticsId.C19)
BRUTE_MAX_ATOMS = 3  # the oracle walks 2^(2^n) candidates: about 5 s a program at 4 atoms


def assert_same_as_direct(program: Program, whole_program) -> None:
    for sem in SPLITTING:
        views = compute_world_views(program, sem)
        assert views == whole_program[sem](program), (sem, str(program))
        if len(program.atoms) <= BRUTE_MAX_ATOMS:
            assert views == brute_force_world_views(program, sem), (sem, str(program))


def test_registry_routes_splitting_semantics_by_components(monkeypatch):
    calls = []
    real = semantics_module.world_views
    monkeypatch.setattr(semantics_module, "world_views", lambda p, sem: calls.append(p) or real(p, sem))
    program = parse_program("a :- not K b. b :- not K a. c :- not K d. d :- not K c.")
    compute_world_views(program, SemanticsId.G91)
    assert len(calls) == 2 and all(len(p.atoms) == 2 for p in calls)
    calls.clear()
    compute_world_views(program, SemanticsId.G11)
    assert calls == [program]  # no splitting claim: the whole program at once


def test_random_programs_at_the_matrix_shape(whole_program):
    rng = random.Random(4242)
    for sem in SPLITTING:
        for _ in range(150):
            assert_same_as_direct(random_epistemic_program(rng, REGISTRY[sem].shape), whole_program)


def test_criterion_7_sample(whole_program):
    rng = random.Random(2026)
    shape = GeneratorShape(n_atoms=4, max_rules=5, subjective_prob=0.45, m_prob=0.2)
    for _ in range(500):
        assert_same_as_direct(random_epistemic_program(rng, shape), whole_program)


# ---------------------------------------------------------------------------
# unions of small random blocks


BLOCK = GeneratorShape(max_rules=3, max_body=2, subjective_prob=0.5, m_prob=0.15, constraint_prob=0.2)


def random_union(rng: random.Random, cross: bool) -> Program:
    """2-4 blocks of 1-3 atoms with at most 6 subjective cores, so the direct
    loop stays fast.  With `cross`, a block may read earlier blocks through
    subjective literals, and a subjective constraint may span the blocks.
    Some unions get a constraint without atoms."""
    while True:
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(2, 4))]
        program = random_block_union(rng, BLOCK, sizes, cross_prob=0.5 if cross else 0.0)
        rules = list(program.rules)
        if cross and rng.random() < 0.2:
            rules.append(random_subjective_constraint(rng, program, BLOCK))
        if rng.random() < 0.06:
            rules.append(parse_rule(":- #true."))
        program = Program.of(rules)
        if len(subjective_cores(program)) <= 6:
            return program


def test_closed_component_against_the_enumeration():
    """U is None iff nothing splits, and otherwise a splitting set.  When
    some splitting set shares no rule with the other atoms, U is one such;
    otherwise (one block) no splitting set is a proper subset of U."""
    rng = random.Random(5151)
    programs = [random_epistemic_program(rng, GeneratorShape(n_atoms=rng.randint(1, 6))) for _ in range(900)]
    programs += [random_union(rng, cross=n % 2 == 0) for n in range(600)]
    seen = Counter()
    for program in programs:
        U = closed_component(program)
        sets = enumerate_epistemic_splitting_sets(program)
        if U is None:
            assert not sets, str(program)
            seen["none"] += 1
            continue
        assert U in sets, str(program)
        blocks = {u for u in sets if not any(r.atoms & u and r.atoms - u for r in program.rules)}
        if blocks:
            assert U in blocks, str(program)
            seen["several blocks"] += 1
        else:
            assert not any(u < U for u in sets), str(program)
            seen["one block"] += 1
    assert min(seen.values()) >= 100, seen


def product(answers) -> set[WorldView]:
    """World views of a disjoint union from the world views of its parts."""
    views = {WorldView(frozenset([frozenset()]))}
    for answer in answers:
        views = {combine(wv, other) for wv in views for other in answer}
    return views


def direct_solves(monkeypatch, sem) -> list[Program]:
    """The programs that the registry's `direct` solver of `sem` is given
    from now on, in call order."""
    calls = []
    entry = REGISTRY[sem]

    def direct(program):
        calls.append(program)
        return entry.direct(program)

    monkeypatch.setitem(REGISTRY, sem, dataclasses.replace(entry, direct=direct))
    return calls


def test_unions_of_random_blocks(monkeypatch, whole_program):
    splits = []  # per split: whether it is independent, None for no split

    def recorded(program: Program):
        U = closed_component(program)
        if U is None:
            splits.append(None)
        else:  # independent: no rule outside U mentions U
            splits.append(not any(r.atoms & U and not r.atoms <= U for r in program.rules))
        return U

    monkeypatch.setattr(splitting, "closed_component", recorded)
    rng = random.Random(9090)
    seen = Counter()
    for n in range(240):
        splits.clear()
        program = random_union(rng, cross=n % 2 == 0)
        assert_same_as_direct(program, whole_program)
        seen["independent split"] += True in splits
        seen["dependent split"] += False in splits
        has_views = bool(compute_world_views(program, SemanticsId.G91))
        seen["world views"] += has_views
        seen["no world view"] += not has_views
        seen["atomless rule"] += any(not r.atoms for r in program.rules)
    assert min(seen.values()) >= 10, seen


def test_disjoint_blocks_are_solved_once_each(monkeypatch):
    """Without cross-block reads, each block is solved as it is alone: the
    union's world views are the product of the blocks', for the sum of
    their direct solves."""
    calls = {sem: direct_solves(monkeypatch, sem) for sem in SPLITTING}
    rng = random.Random(9191)
    for _ in range(60):
        blocks = [
            Program.of(random_block(rng, BLOCK, [Atom(f"a{j}"), Atom(f"b{j}")]))
            for j in range(rng.randint(2, 4))
        ]
        union = Program.of(r for block in blocks for r in block.rules)
        for sem in SPLITTING:
            calls[sem].clear()
            views = component_world_views(union, sem)
            union_calls = len(calls[sem])
            calls[sem].clear()
            alone = [component_world_views(b, sem) for b in blocks]
            assert views == product(alone), (sem, str(union))
            assert union_calls <= len(calls[sem]), (sem, str(union))


@pytest.mark.parametrize("sem", SPLITTING)
def test_constraints_on_the_bottom_prune_it_before_the_top_is_solved(sem, monkeypatch, whole_program):
    """`:- not K a` mentions only the bottom {a, b}, so it stays there and
    drops the view [[b]]; the top `c :- K a` is solved for [[a]] alone."""
    program = parse_program("a :- not K b. b :- not K a. :- not K a. c :- K a.")
    calls = direct_solves(monkeypatch, sem)
    views = component_world_views(program, sem)
    assert views == whole_program[sem](program) == {WorldView.of([{Atom("a"), Atom("c")}])}
    assert [len(p.rules) for p in calls] == [3, 1]


@pytest.mark.parametrize("sem", SPLITTING)
def test_equal_simplified_tops_are_solved_once(sem, monkeypatch, whole_program):
    """Both bottom views [[a, e]] and [[b, e]] make K e true, so the top
    `c :- K e` simplifies to the same program under each: one direct solve
    for the bottom {a, b, e} and one for that top."""
    program = parse_program("a :- not K b. b :- not K a. e :- a. e :- b. c :- K e.")
    calls = direct_solves(monkeypatch, sem)
    views = component_world_views(program, sem)
    assert views == whole_program[sem](program) and len(views) == 2
    assert [len(p.rules) for p in calls] == [4, 1]


@pytest.mark.parametrize("sem", SPLITTING)
def test_a_top_that_does_not_read_its_bottom_is_not_simplified(sem, monkeypatch):
    """Disjoint blocks split off with a top that mentions none of their
    atoms, so no subjective reduct is taken against their world views."""
    calls = []
    for module in (modal, semantics_module, splitting):
        real = module.subjective_reduct
        monkeypatch.setattr(module, "subjective_reduct", lambda *a, real=real: calls.append(a) or real(*a))
    assert len(compute_world_views(k_blocks(6), sem)) == 64
    assert calls == []


# ---------------------------------------------------------------------------
# caps


def k_blocks(k: int) -> Program:
    return load_program("".join(f"a{i} :- not K b{i}. b{i} :- not K a{i}.\n" for i in range(k)))


def test_c19_and_its_g91_base_split_each_part_once(monkeypatch):
    """A C19 solve and the G91 solve of its base views split each part once
    between them, in a memo and without one: C19 reads its base off the G91
    `direct` solver on a component, which does not split again."""
    calls = Counter()
    real = splitting.closed_component
    monkeypatch.setattr(splitting, "closed_component", lambda p: calls.update([p]) or real(p))
    with engine.solve_memo():
        views = compute_world_views(k_blocks(4), SemanticsId.C19)
    assert len(views) == 16 and set(calls.values()) == {1}
    parts = set(calls)
    calls.clear()
    assert compute_world_views(k_blocks(4), SemanticsId.C19) == views
    assert set(calls) == parts and set(calls.values()) == {1}


@pytest.mark.parametrize("sem", list(SemanticsId))
def test_no_direct_solver_splits(sem, monkeypatch):
    """A registry `direct` solver takes the program it is given whole: only
    `component_world_views` asks for a closed component."""
    calls = []
    real = splitting.closed_component
    monkeypatch.setattr(splitting, "closed_component", lambda p: calls.append(p) or real(p))
    views = REGISTRY[sem].direct(parse_program("a :- not K b. b :- not K a. c."))
    assert views and calls == []


@pytest.mark.parametrize("sem", SPLITTING)
def test_eight_blocks_under_default_caps(sem, whole_program):
    """16 cores are past the whole-program guess cap of 4096; per block there are 2."""
    views = compute_world_views(k_blocks(8), sem)
    blocks = [load_program(f"a{i} :- not K b{i}. b{i} :- not K a{i}.\n") for i in range(8)]
    assert len(views) == 256 and views == product(whole_program[sem](b) for b in blocks)


@pytest.mark.parametrize("sem", SPLITTING)
def test_assembled_answer_over_the_guess_cap_is_refused(sem, monkeypatch):
    monkeypatch.setattr(semantics_module, "MAX_GUESSES", 64)
    with pytest.raises(CapacityError, match="the world views exceed the guess cap of 64"):
        compute_world_views(k_blocks(8), sem)


@pytest.mark.parametrize("sem", SPLITTING)
def test_whole_program_atom_cap(sem):
    with pytest.raises(CapacityError, match="22 atoms exceed the exhaustive-search cap of 20"):
        compute_world_views(k_blocks(11), sem)
