import random
from itertools import product

import pytest

from elps.config import SolverLimits
from elps.eht import (
    EHTInterpretation,
    _countermodel,
    eht_satisfies,
    equilibrium_countermodel,
    equilibrium_eht_models,
    f15_world_views,
    is_eht_model,
    models_star,
    total_model_countermodels,
)
from elps.errors import CapacityError
from elps.generators import GeneratorShape, random_epistemic_program
from elps.modal import WorldView, is_s5_model, modal_satisfies
from elps.syntax import (
    Atom,
    ObjLit,
    Program,
    SubjLit,
    atom_key,
    atoms_of,
    capped_atoms,
    interp_key,
    is_objective,
    parse_atom,
    parse_program,
    parse_rule,
    subsets,
)

A, B = Atom("a"), Atom("b")


def wv_of(*texts):
    return WorldView.of([parse_atom(t) for t in text.split()] for text in texts)


def test_h_must_be_subvaluation():
    with pytest.raises(ValueError):
        EHTInterpretation(wv_of(""), {frozenset(): frozenset([A])})


def test_point_must_belong_to_world_view():
    eht = EHTInterpretation.total(wv_of("a"))
    with pytest.raises(ValueError):
        eht_satisfies(eht, frozenset([B]), ObjLit(A))


def test_atoms_read_from_here_valuation():
    wv = wv_of("a")
    point = frozenset([A])
    eht = EHTInterpretation(wv, {point: frozenset()})
    assert not eht_satisfies(eht, point, ObjLit(A))
    # a default-negated literal is evaluated in the total variant
    assert not eht_satisfies(eht, point, ObjLit(A, 1))
    assert eht_satisfies(eht, point, ObjLit(A, 2))


def test_modal_clauses_use_h():
    wv = wv_of("a", "a b")
    h = {frozenset([A]): frozenset(), frozenset([A, B]): frozenset([A, B])}
    eht = EHTInterpretation(wv, h)
    assert not eht_satisfies(eht, frozenset([A]), SubjLit("K", ObjLit(A)))
    assert eht_satisfies(eht, frozenset([A]), SubjLit("M", ObjLit(A)))
    # outer default negation switches to the total reading
    assert not eht_satisfies(eht, frozenset([A]), SubjLit("K", ObjLit(A), neg=True))


def _all_interps(atoms):
    return [frozenset(a for i, a in enumerate(atoms) if m & (1 << i)) for m in range(1 << len(atoms))]


def _all_world_views(atoms):
    interps = _all_interps(atoms)
    for mask in range(1, 1 << len(interps)):
        yield WorldView.of(interps[i] for i in range(len(interps)) if mask & (1 << i))


def test_total_eht_collapses_to_modal_satisfaction():
    atoms = [A, B]
    rules = [
        parse_rule("a :- K b."),
        parse_rule("b :- not K a, M b."),
        parse_rule("a | b :- not a."),
        parse_rule(":- M not b."),
    ]
    for wv in _all_world_views(atoms):
        eht = EHTInterpretation.total(wv)
        for rule in rules:
            for point in wv.interps:
                assert eht_satisfies(eht, point, rule) == modal_satisfies(wv, point, rule)


def test_total_model_iff_s5_model():
    atoms = [A, B]
    programs = [
        parse_program("a | b."),
        parse_program("a :- K a."),
        parse_program("a | b. :- not K a."),
    ]
    for program in programs:
        for wv in _all_world_views(atoms):
            assert is_eht_model(EHTInterpretation.total(wv), program) == is_s5_model(wv, program)


def test_equilibrium_models_of_disjunction():
    program = parse_program("a | b.")
    assert equilibrium_eht_models(program) == {wv_of("a"), wv_of("b"), wv_of("a", "b")}


def test_equilibrium_models_of_constraint_program():
    program = parse_program("a | b. :- not K a.")
    assert equilibrium_eht_models(program) == {wv_of("a")}


def test_equilibrium_model_of_fact():
    assert equilibrium_eht_models(parse_program("a.")) == {wv_of("a")}


def test_equilibrium_countermodel_is_returned():
    program = parse_program("a | b.")
    wv = wv_of("a b")
    h = equilibrium_countermodel(program, wv)
    assert h is not None
    assert h[frozenset([A, B])] < frozenset([A, B])
    assert equilibrium_countermodel(program, wv_of("a")) is None


def test_models_star_examples():
    program = parse_program("a.")
    wv = wv_of("a")
    assert models_star(wv, wv.interps, program)
    # X = wv reduces to the equilibrium condition
    disj = parse_program("a | b.")
    assert models_star(wv_of("a", "b"), wv_of("a", "b").interps, disj)
    assert not models_star(wv_of("a b"), wv_of("a b").interps, disj)
    # X = ∅: only condition (2) matters and only total maps qualify
    assert models_star(wv_of(""), frozenset(), parse_program("a."))
    with pytest.raises(ValueError):
        models_star(wv_of("a"), {frozenset([B])}, program)


def test_f15_counterexample_pair():
    # the monotonicity-violation pair: the constrained program keeps [{a}],
    # the unconstrained one selects only the ⊂-maximal equilibrium model
    constrained = parse_program("a | b. :- not K a.")
    assert f15_world_views(constrained) == {wv_of("a")}
    assert f15_world_views(parse_program("a | b.")) == {wv_of("a", "b")}


def test_f15_simple_programs():
    assert f15_world_views(parse_program("a.")) == {wv_of("a")}
    assert f15_world_views(parse_program("a :- K a.")) == {wv_of("")}
    pi4 = parse_program("a | b. c :- K a.")
    assert f15_world_views(pi4) == {wv_of("a", "b")}


def test_f15_capacity():
    program = parse_program("a :- b, c, d.")
    with pytest.raises(CapacityError):
        equilibrium_eht_models(program)
    assert equilibrium_eht_models(program, SolverLimits(f15_max_atoms=4)) is not None


def test_supra_chain_randomized():
    rng = random.Random(61)
    shape = GeneratorShape(n_atoms=3, max_rules=3, subjective_prob=0.5, m_prob=0.25)
    for _ in range(25):
        program = random_epistemic_program(rng, shape)
        equilibria = equilibrium_eht_models(program)
        selected = f15_world_views(program)
        assert selected <= equilibria
        for wv in equilibria:
            assert is_s5_model(wv, program), str(program)


def _h_maps_ref(wv, free):
    """Reference: every h total outside `free`, as the product of each free
    point's subsets (points by interp_key, subsets in `subsets` order)."""
    free = sorted(free, key=interp_key)
    fixed = {i: i for i in wv.interps if i not in free}
    choice_lists = [list(subsets(sorted(i, key=atom_key))) for i in free]
    for choices in product(*choice_lists):
        h = dict(fixed)
        h.update(zip(free, choices))
        yield h


def _countermodel_ref(program, wv, free):
    """Reference: the first non-total model in the full product walk."""
    for h in _h_maps_ref(wv, free):
        if all(h[i] == i for i in wv.interps):
            continue
        if is_eht_model(EHTInterpretation(wv, h), program):
            return h
    return None


def test_countermodel_search_matches_product_walk():
    rng = random.Random(83)
    # the F15 matrix shape (3 atoms, the EHT cap), with M literals as well
    shape = GeneratorShape(n_atoms=3, max_rules=4, subjective_prob=0.5, m_prob=0.25)
    interps = _all_interps([A, B, parse_atom("c")])
    found = none = strict = 0
    for _ in range(2400):
        program = random_epistemic_program(rng, shape)
        wv = WorldView(frozenset(rng.sample(interps, rng.randint(1, 5))))
        points = sorted(wv.interps, key=interp_key)
        free = frozenset(p for p in points if rng.random() < 0.7) if rng.random() < 0.4 else wv.interps
        strict += free < wv.interps
        expected = _countermodel_ref(program, wv, free)
        got = _countermodel(program, wv, free)
        assert got == expected, (str(program), str(wv), sorted(map(interp_key, free)))
        if free == wv.interps:
            assert equilibrium_countermodel(program, wv) == expected
        found += expected is not None
        none += expected is None
    assert found > 400 and none > 400 and strict > 500


def _total_model_countermodels_ref(program, limits=SolverLimits()):
    """Reference: every candidate world view checked against every rule, with
    no objective prefilter."""
    atoms = capped_atoms(program, limits.f15_max_atoms, "EHT")
    out = []
    for interps in subsets(list(subsets(atoms))):
        if not interps:
            continue
        wv = WorldView(interps)
        if is_eht_model(EHTInterpretation.total(wv), program):
            out.append((wv, equilibrium_countermodel(program, wv)))
    return out


def test_total_model_countermodels_match_unfiltered_enumeration():
    rng = random.Random(29)
    pool = [A, B, parse_atom("c")]
    constrained = with_m = widened = 0
    for _ in range(300):
        n_atoms = rng.randint(1, 3)
        shape = GeneratorShape(
            n_atoms=n_atoms, max_rules=4, subjective_prob=0.5, m_prob=0.25, constraint_prob=0.3
        )
        program = random_epistemic_program(rng, shape)
        if rng.random() < 0.3:
            extra = frozenset(rng.sample(pool, rng.randint(1, 3)))
            program = Program(program.rules, extra)
            widened += bool(extra - atoms_of(program.rules))
        constrained += any(not r.head and is_objective(r) for r in program.rules)
        with_m += "M " in str(program)
        expected = _total_model_countermodels_ref(program)
        assert total_model_countermodels(program) == expected, str(program)
    assert constrained > 30 and with_m > 30 and widened > 10
    # one program past the default cap: 2^16 - 1 candidates
    program = parse_program("a | b. c :- not K d, a. d :- M b, not c. :- a, b. :- c, d.")
    limits = SolverLimits(f15_max_atoms=4)
    got = total_model_countermodels(program, limits)
    assert got and got == _total_model_countermodels_ref(program, limits)
