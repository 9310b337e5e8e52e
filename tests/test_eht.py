import random
from collections import Counter
from itertools import product
from typing import Iterable, Mapping

import pytest

from elps import eht
from elps.eht import (
    _Compiled,
    _countermodel,
    equilibrium_countermodel,
    equilibrium_eht_models,
    f15_world_views,
    models_star,
    total_model_countermodels,
)
from elps.engine import compute_world_views, solve_memo
from elps.errors import CapacityError
from elps.generators import GeneratorShape, random_epistemic_program
from elps.harness import FIXTURE_CASES
from elps.modal import WorldView, is_s5_model, modal_satisfies, subjective_reduct, world_views_to_json
from elps.objective import _and_or, _point_rules, _violated, stable_models
from elps.semantics import SemanticsId, evaluate_cores, semantics_reduct, subjective_cores
from elps.splitting import closed_component
from elps.syntax import (
    BOT,
    TOP,
    Atom,
    ObjLit,
    Program,
    Rule,
    SubjLit,
    atom_key,
    capped_atoms,
    const_truth,
    interp_key,
    parse_atom,
    parse_program,
    parse_rule,
    subsets,
)
from helpers import all_interps, all_world_views, wv_of

A, B = Atom("a"), Atom("b")


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


def test_total_eht_collapses_to_modal_satisfaction():
    atoms = [A, B]
    rules = [
        parse_rule("a :- K b."),
        parse_rule("b :- not K a, M b."),
        parse_rule("a | b :- not a."),
        parse_rule(":- M not b."),
    ]
    for wv in all_world_views(atoms):
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
        for wv in all_world_views(atoms):
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


def test_f15_capacity(monkeypatch):
    program = parse_program("a :- b, c, d.")
    with pytest.raises(CapacityError, match="4 atoms exceed the EHT cap of 3"):
        equilibrium_eht_models(program)
    monkeypatch.setattr(eht, "F15_MAX_ATOMS", 4)
    assert equilibrium_eht_models(program) is not None


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


# --- the definitional reference: EHT interpretations and satisfaction as
# defined, with the total ("there") reading taken as h = identity


class EHTInterpretation:
    """A world view plus a "here" map h with h(I) ⊆ I for every I."""

    def __init__(self, wv: WorldView, h: Mapping[frozenset, Iterable[Atom]]):
        self.wv = wv
        self.h = {i: frozenset(h[i]) for i in wv.interps}
        for i, here in self.h.items():
            if not here <= i:
                raise ValueError(f"h({set(i)}) = {set(here)} is not a subset")

    @classmethod
    def total(cls, wv: WorldView) -> "EHTInterpretation":
        return cls(wv, {i: i for i in wv.interps})


def _lit_truth_ref(wv, h, point, lit) -> bool:
    if isinstance(lit, ObjLit):
        value = const_truth(lit)
        if value is not None:
            return value
        if lit.negs == 0:
            return lit.base in h[point]
        # a default-negated literal reads the total ("there") valuation
        value = lit.base in point
        return value if lit.negs == 2 else not value
    if lit.neg:
        return not _lit_truth_ref(wv, {i: i for i in wv.interps}, point, lit.core())
    quantifier = all if lit.modality == "K" else any
    return quantifier(_lit_truth_ref(wv, h, i, lit.inner) for i in wv.interps)


def _rule_ref(wv, h, point, rule) -> bool:
    if all(_lit_truth_ref(wv, h, point, l) for l in rule.body):
        return any(a in h[point] for a in rule.head)
    return True


def eht_satisfies(eht: EHTInterpretation, point, construct) -> bool:
    point = frozenset(point)
    if point not in eht.wv.interps:
        raise ValueError(f"point {set(point)} is not in the world view")
    if isinstance(construct, (ObjLit, SubjLit)):
        return _lit_truth_ref(eht.wv, eht.h, point, construct)
    if isinstance(construct, Rule):
        return _rule_ref(eht.wv, eht.h, point, construct)
    raise TypeError(f"unsupported construct {construct!r}")


def is_eht_model(eht: EHTInterpretation, program: Program) -> bool:
    return all(_rule_ref(eht.wv, eht.h, i, r) for i in eht.wv.interps for r in program.rules)


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
    interps = all_interps([A, B, parse_atom("c")])
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


def _total_model_countermodels_ref(program):
    """Reference: every candidate world view checked against every rule, with
    no objective prefilter."""
    atoms = capped_atoms(program, eht.F15_MAX_ATOMS, "EHT")
    out = []
    for interps in subsets(list(subsets(atoms))):
        if not interps:
            continue
        wv = WorldView(interps)
        if is_eht_model(EHTInterpretation.total(wv), program):
            out.append((wv, equilibrium_countermodel(program, wv)))
    return out


def test_total_model_countermodels_match_unfiltered_enumeration(monkeypatch):
    rng = random.Random(29)
    constrained = with_m = 0
    for _ in range(300):
        n_atoms = rng.randint(1, 3)
        shape = GeneratorShape(
            n_atoms=n_atoms, max_rules=4, subjective_prob=0.5, m_prob=0.25, constraint_prob=0.3
        )
        program = random_epistemic_program(rng, shape)
        constrained += any(not r.head and not r.body_sub for r in program.rules)
        with_m += "M " in str(program)
        expected = _total_model_countermodels_ref(program)
        assert total_model_countermodels(program) == expected, str(program)
    assert constrained > 30 and with_m > 30
    # one program past the default cap: 2^16 - 1 candidates
    program = parse_program("a | b. c :- not K d, a. d :- M b, not c. :- a, b. :- c, d.")
    monkeypatch.setattr(eht, "F15_MAX_ATOMS", 4)
    got = total_model_countermodels(program)
    assert got and got == _total_model_countermodels_ref(program)


def _f15_world_views_ref(program):
    """Reference F15 from the definitions alone: total EHT models with no
    non-total model in the product walk, then the ⊂ / ≤ selection, with
    models* as (1) the total reading at the points of X and (2) no non-total
    model total outside X."""
    atoms = capped_atoms(program, eht.F15_MAX_ATOMS, "EHT")
    equilibria = []
    for interps in subsets(list(subsets(atoms))):
        if interps:
            wv = WorldView(interps)
            if is_eht_model(EHTInterpretation.total(wv), program):
                if _countermodel_ref(program, wv, wv.interps) is None:
                    equilibria.append(wv)
    domain = {i for wv in equilibria for i in wv.interps}

    def star(interps, X) -> bool:
        wv = WorldView(interps)
        total = EHTInterpretation.total(wv)
        if not all(eht_satisfies(total, i, r) for i in X for r in program.rules):
            return False
        return _countermodel_ref(program, wv, X) is None

    def less_equal(w1, w2) -> bool:
        return all(
            star(w2.interps | {i}, w2.interps)
            for i in domain
            if star(w1.interps | {i}, w1.interps)
        )

    def dominates(other, wv) -> bool:
        return wv.interps < other.interps or (less_equal(wv, other) and not less_equal(other, wv))

    return {wv for wv in equilibria if not any(dominates(o, wv) for o in equilibria if o != wv)}


def test_f15_world_views_match_definitional_reference(monkeypatch):
    rng = random.Random(41)
    constrained = with_m = selective = 0
    for _ in range(300):
        shape = GeneratorShape(
            n_atoms=rng.randint(1, 3), max_rules=4, subjective_prob=0.5, m_prob=0.25, constraint_prob=0.3
        )
        program = random_epistemic_program(rng, shape)
        constrained += any(not r.head and not r.body_sub for r in program.rules)
        with_m += "M " in str(program)
        expected = _f15_world_views_ref(program)
        assert f15_world_views(program) == expected, str(program)
        selective += len(expected) < len(equilibrium_eht_models(program))
    assert constrained > 30 and with_m > 30 and selective > 10
    program = parse_program("a | b. c :- not K d, a. d :- M b, not c. :- a, b. :- c, d.")
    monkeypatch.setattr(eht, "F15_MAX_ATOMS", 4)
    assert f15_world_views(program) == _f15_world_views_ref(program)


def test_f15_decides_each_point_once_per_signature(monkeypatch, corpus):
    """One F15 solve takes the rules of a point at most once per (rules,
    point, AND, OR): the countermodel search of every candidate world view
    and the models* checks of the ordering share them.  A program with no
    candidate (`:- not c.` has no stable model) reads no point."""
    calls = Counter()
    read = 0
    real = eht._point_rules

    def point_rules(rules, point, w_and, w_or):
        calls[id(rules), point, w_and, w_or] += 1
        return real(rules, point, w_and, w_or)

    monkeypatch.setattr(eht, "_point_rules", point_rules)
    rng = random.Random(43)
    shape = GeneratorShape(n_atoms=3, max_rules=4, subjective_prob=0.5, m_prob=0.25, constraint_prob=0.3)
    programs = [corpus["ce1a"]] + [random_epistemic_program(rng, shape) for _ in range(40)]
    for program in programs:
        calls.clear()
        assert f15_world_views(program) == _f15_world_views_ref(program), str(program)
        assert max(calls.values(), default=0) <= 1, str(program)
        read += bool(calls)
    assert read > 20


def _equilibria_of_total_models(program):
    """The reference route: every total model, kept when it has no
    countermodel."""
    return {wv for wv, h in total_model_countermodels(program) if h is None}


def test_equilibrium_points_are_stable_in_the_g91_reduct():
    """The two-way lemma behind F15's candidates: each point of an
    equilibrium is a stable model of the G91 subjective reduct at it; and
    for every guess v, each non-empty set S of stable models of the G91
    reduct at v with cores(S) = v is a total EHT model."""
    rng = random.Random(47)
    points = equilibria = candidates = constrained = with_m = 0
    for _ in range(300):
        shape = GeneratorShape(
            n_atoms=rng.randint(1, 3), max_rules=4, subjective_prob=0.5, m_prob=0.25, constraint_prob=0.3
        )
        program = random_epistemic_program(rng, shape)
        constrained += any(not r.head and not r.body_sub for r in program.rules)
        with_m += "M " in str(program)
        reference = _equilibria_of_total_models(program)
        assert equilibrium_eht_models(program) == reference, str(program)
        for wv in reference:
            assert wv.interps <= stable_models(subjective_reduct(program, wv)), (str(program), str(wv))
            equilibria += 1
            points += len(wv.interps)
        cores = subjective_cores(program)
        for values in product((False, True), repeat=len(cores)):
            guess = dict(zip(cores, values))
            reduct = semantics_reduct(program, guess, SemanticsId.G91)
            for interps in subsets(stable_models(reduct)):
                if interps and evaluate_cores(program, WorldView(interps)) == guess:
                    total = EHTInterpretation.total(WorldView(interps))
                    assert is_eht_model(total, program), (str(program), sorted(map(interp_key, interps)))
                    candidates += 1
    assert equilibria > 250 and points > 300 and candidates > 250
    assert constrained > 30 and with_m > 30


def test_candidates_keep_every_equilibrium_at_four_atoms(monkeypatch):
    # where the rules with no subjective literal pass all 16 points, a 4-atom
    # program can have up to 2^16 - 1 total models, 10 s or more on the
    # reference route; the programs drawn here let at most 12 points pass
    rng = random.Random(53)
    monkeypatch.setattr(eht, "F15_MAX_ATOMS", 4)
    shape = GeneratorShape(n_atoms=4, max_rules=6, subjective_prob=0.5, m_prob=0.25, constraint_prob=0.3)
    programs = []
    while len(programs) < 20:
        program = random_epistemic_program(rng, shape)
        if len(program.atoms) == 4:
            c = _Compiled.capped(program)
            if sum(p in c.here_values(p) for p in range(16)) <= 12:
                programs.append(program)
    found = 0
    for program in programs:
        reference = _equilibria_of_total_models(program)
        assert equilibrium_eht_models(program) == reference, str(program)
        found += bool(reference)
    assert found >= 10


def test_f15_searches_one_candidate_for_a_four_atom_rule(monkeypatch):
    # every point but ∅ has ∅ as a smaller here-value, so one candidate is
    # left of the 32767 total models (2^15 - 1) that were each searched
    searches = Counter()
    real = _Compiled.countermodel

    def countermodel(self, points, free, rules):
        searches[frozenset(points)] += 1
        return real(self, points, free, rules)

    monkeypatch.setattr(_Compiled, "countermodel", countermodel)
    monkeypatch.setattr(eht, "F15_MAX_ATOMS", 4)
    program = parse_program("a :- b, c, d.")
    assert f15_world_views(program) == {wv_of("")}
    assert searches == {frozenset([0]): 1}


def test_f15_past_the_cap_gives_the_fixture_world_views(monkeypatch, corpus):
    """With the EHT cap lifted to 9 atoms, F15 gives pi1 (4 atoms), college
    (8) and college3 (9) the world views `FIXTURE_CASES` expects of the other
    five semantics; the fixtures themselves check no F15 there."""
    monkeypatch.setattr(eht, "F15_MAX_ATOMS", 9)
    cases = {case.name: case.expected for case in FIXTURE_CASES}
    for name in ("pi1", "college", "college3"):
        others = list(cases[name].values())
        assert SemanticsId.F15 not in cases[name] and len(others) == 5
        assert all(expected == others[0] for expected in others), name
        assert world_views_to_json(f15_world_views(corpus[name])) == others[0], name


@pytest.mark.parametrize("name", ["ce2", "ka"])
def test_f15_reuses_the_g91_searches_of_a_run(corpus, searches, name):
    """F15 searches the stable models of the same compiled G91 reducts as the
    G91 loop, so inside one run memo a program of one closed component,
    solved under g91 and then f15, is searched no further."""
    program = corpus[name]
    assert closed_component(program) is None
    with solve_memo():
        compute_world_views(program, SemanticsId.G91)
        after_g91 = Counter(searches)
        compute_world_views(program, SemanticsId.F15)
    assert after_g91 and searches == after_g91
    searches.clear()
    compute_world_views(program, SemanticsId.F15)
    assert set(searches) == set(after_g91)


def _random_body_literal(rng, atoms):
    kind = rng.choice(("atom", "const", "subjective"))
    if kind == "const":
        return ObjLit(rng.choice((TOP, BOT)), rng.randint(0, 2))
    inner = ObjLit(rng.choice(atoms), rng.randint(0, 2))
    if kind == "atom":
        return inner
    return SubjLit(rng.choice("KM"), inner, rng.random() < 0.4)


def test_here_reading_matches_definitional_satisfaction():
    # the compiled rule check, per point and per rule, on random (program,
    # world view, h ⊆ I) triples whose literals cover M, inner `not`,
    # `not not` and the truth constants; each literal is checked as the
    # one-literal constraint `:- l.`, which holds where l does not
    rng = random.Random(97)
    pool = [A, B, parse_atom("c")]
    triples = 0
    seen = set()
    for _ in range(1200):
        atoms = pool[: rng.randint(1, 3)]
        rules = [
            Rule(
                frozenset(rng.sample(atoms, rng.randint(0, min(2, len(atoms))))),
                tuple(_random_body_literal(rng, atoms) for _ in range(rng.randint(0, 3))),
            )
            for _ in range(rng.randint(1, 3))
        ]
        lits = [lit for rule in rules for lit in rule.body]
        compiled = _Compiled(Program(tuple(rules + [Rule(frozenset(), (l,)) for l in lits])), atoms)
        interps = all_interps(atoms)
        wv = WorldView(frozenset(rng.sample(interps, rng.randint(1, len(interps)))))
        h = {i: frozenset(a for a in i if rng.random() < 0.5) for i in wv.interps}
        eht = EHTInterpretation(wv, h)
        triples += 1
        points = {i: compiled.mask(i) for i in wv.interps}
        here = {points[i]: compiled.mask(h[i]) for i in wv.interps}
        w_and, w_or = _and_or(points.values())
        h_and, h_or = _and_or(here.values())

        def holds(n: int, point: int) -> bool:
            rules_at = _point_rules([compiled.rules[n]], point, w_and, w_or)
            return not _violated(rules_at, here[point], h_and, h_or)

        for point, p in points.items():
            for n, rule in enumerate(rules):
                expected = eht_satisfies(eht, point, rule)
                assert holds(n, p) == expected, (str(rule), str(wv), h)
            for n, lit in enumerate(lits, start=len(rules)):
                value = eht_satisfies(eht, point, lit)
                assert holds(n, p) == (not value), (str(lit), str(wv), h)
                # the literal shapes whose here and total readings differed
                if value != modal_satisfies(wv, point, lit):
                    inner = lit.inner if isinstance(lit, SubjLit) else lit
                    seen.add((type(lit).__name__, getattr(lit, "neg", False), inner.negs))
    assert triples >= 1000
    # only a positive atom and K/M over one read h
    assert seen == {("ObjLit", False, 0), ("SubjLit", False, 0)}
