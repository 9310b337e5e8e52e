import random

import pytest

from elps import foundedness
from elps.errors import CapacityError
from elps.foundedness import (
    UnfoundedPair,
    c19_world_views,
    greatest_unfounded_set,
    has_justifying_rule,
    is_founded,
    is_founded_brute,
    positive_objective_atoms,
    positive_subjective_atoms,
    unfounded_certificate,
)
from elps.generators import GeneratorShape, random_epistemic_program, random_objective_program
from elps.modal import WorldView
from elps.objective import stable_models
from elps.semantics import SemanticsId, world_views
from elps.syntax import Atom, atom_key, parse_atom, parse_program, parse_rule, subsets
from helpers import KA, wv_of

A, B = Atom("a"), Atom("b")


def pair(x_text, i_text):
    return UnfoundedPair(
        frozenset(parse_atom(t) for t in x_text.split()),
        frozenset(parse_atom(t) for t in i_text.split()),
    )


def test_body_partitions():
    rule = parse_rule("x :- a, not b, not not c, K d, not K e, M f.")
    assert positive_objective_atoms(rule) == {Atom("a")}
    assert positive_subjective_atoms(rule) == {Atom("d")}
    # inner-negated K and M forms give no positive modal support
    rule2 = parse_rule("x :- K not a, M b.")
    assert positive_subjective_atoms(rule2) == frozenset()


def test_has_justifying_rule_examples():
    assert not has_justifying_rule(KA, wv_of("a"), pair("a", "a"), {A})
    fact = parse_program("a.")
    assert has_justifying_rule(fact, wv_of("a"), pair("a", "a"), {A})
    chain = parse_program("a :- b.")
    assert not has_justifying_rule(chain, wv_of(""), pair("a", ""), frozenset())
    assert not has_justifying_rule(chain, wv_of(""), pair("a", ""), {A, B})


def test_greatest_unfounded_set_examples():
    assert greatest_unfounded_set(KA, wv_of("a")) == {pair("a", "a")}
    assert greatest_unfounded_set(KA, wv_of("")) == frozenset()
    assert greatest_unfounded_set(parse_program("a."), wv_of("a")) == frozenset()


def test_is_founded_examples():
    assert is_founded(KA, wv_of(""))
    assert not is_founded(KA, wv_of("a"))


def test_c19_world_views_examples():
    assert c19_world_views(KA) == {wv_of("")}
    pi4 = parse_program("a | b. c :- K a.")
    assert c19_world_views(pi4) == {wv_of("a", "b")}
    pi5 = parse_program("a | b. c :- K a. :- not c.")
    assert c19_world_views(pi5) == frozenset()


def test_c19_subset_of_g91_on_fixtures(corpus):
    for program in corpus.values():
        assert c19_world_views(program) <= world_views(program, SemanticsId.G91)


def test_unfounded_certificate():
    certs = unfounded_certificate(KA, wv_of("a"))
    assert {"X": ["a"], "I": ["a"]} in certs


def test_capacity_error(monkeypatch):
    program = parse_program("x :- a, b, c, d, e, f, g, h, i, j, k, l, m.")
    monkeypatch.setattr(foundedness, "FOUNDED_MAX_ATOMS", 5)
    with pytest.raises(CapacityError, match="14 atoms exceed the foundedness cap of 5"):
        is_founded(program, wv_of(""))


def _gfp_random_order(program, wv, rng):
    """One-at-a-time deletion in random order; must reach the same fixpoint."""
    atoms = sorted(program.atoms)
    pairs = set()
    for interp in wv.interps:
        for mask in range(1, 1 << len(atoms)):
            x = frozenset(a for i, a in enumerate(atoms) if mask & (1 << i))
            if x & interp:
                pairs.add(UnfoundedPair(x, interp))
    while True:
        y = frozenset().union(*(p.X for p in pairs)) if pairs else frozenset()
        justified = [p for p in pairs if has_justifying_rule(program, wv, p, y)]
        if not justified:
            return frozenset(pairs)
        pairs.discard(rng.choice(sorted(justified, key=lambda p: (sorted(map(str, p.X)), sorted(map(str, p.interp))))))


def _views(program, rng, candidates):
    """The program's G91 world views, then `candidates` random candidate world
    views over its atoms; these reach bodies that G91 views falsify."""
    interps = list(subsets(sorted(program.atoms)))
    return list(world_views(program, SemanticsId.G91)) + [
        WorldView(frozenset(rng.sample(interps, rng.randint(1, len(interps)))))
        for _ in range(candidates)
    ]


@pytest.mark.parametrize(
    "shape, count, candidates",
    [
        (GeneratorShape(n_atoms=3, max_rules=4, subjective_prob=0.5), 25, 0),
        # M literals, `not M` and `K not a` reach condition (1) through masks
        (GeneratorShape(n_atoms=3, max_rules=4, subjective_prob=0.5, m_prob=0.3), 200, 4),
    ],
    ids=["k_only", "with_m"],
)
def test_fixpoint_deletion_order_independent(shape, count, candidates):
    rng = random.Random(51)
    for _ in range(count):
        program = random_epistemic_program(rng, shape)
        for wv in _views(program, rng, candidates):
            expected = greatest_unfounded_set(program, wv)
            for _ in range(3):
                assert _gfp_random_order(program, wv, rng) == expected, str(program)


def test_brute_force_agreement_union_method():
    rng = random.Random(52)
    shape = GeneratorShape(n_atoms=3, max_rules=4, subjective_prob=0.5, m_prob=0.2)
    for _ in range(60):
        program = random_epistemic_program(rng, shape)
        for wv in _views(program, rng, 4):
            assert is_founded(program, wv) == is_founded_brute(program, wv), str(program)


def _founded_by_pair_sets(program, wv):
    """Foundedness by the definition: no non-empty set of eligible pairs is
    unfounded w.r.t. the union Y of its X-components.  None past 16 pairs."""
    atoms = sorted(program.atoms, key=atom_key)
    eligible = [UnfoundedPair(x, i) for i in wv.sorted_interps for x in subsets(atoms) if x & i]
    if len(eligible) > 16:
        return None
    for chosen in subsets(eligible):
        y = frozenset().union(*(p.X for p in chosen))
        if chosen and all(not has_justifying_rule(program, wv, p, y) for p in chosen):
            return False
    return True


def test_brute_force_agreement_subset_method():
    rng = random.Random(53)
    shape = GeneratorShape(n_atoms=2, max_rules=3, subjective_prob=0.5)
    checked = 0
    for _ in range(50):
        program = random_epistemic_program(rng, shape)
        for wv in world_views(program, SemanticsId.G91):
            literal = _founded_by_pair_sets(program, wv)
            if literal is None:
                continue
            checked += 1
            assert is_founded(program, wv) == literal, str(program)
            assert is_founded_brute(program, wv) == literal, str(program)
    assert checked >= 20


def test_objective_stable_models_are_founded():
    rng = random.Random(54)
    shape = GeneratorShape(n_atoms=4, max_rules=5)
    for _ in range(60):
        program = random_objective_program(rng, shape)
        models = stable_models(program)
        if not models:
            continue
        assert is_founded(program, WorldView(models)), str(program)


def test_foundedness_invariant_under_m_elimination():
    from elps.syntax import eliminate_m

    rng = random.Random(55)
    shape = GeneratorShape(n_atoms=3, max_rules=4, subjective_prob=0.5, m_prob=0.4)
    for _ in range(40):
        program = random_epistemic_program(rng, shape)
        rewritten = eliminate_m(program)
        for wv in world_views(program, SemanticsId.G91):
            assert is_founded(program, wv) == is_founded(rewritten, wv), str(program)
