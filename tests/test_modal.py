import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elps.generators import GeneratorShape, random_epistemic_program
from elps.modal import (
    WorldView,
    is_s5_model,
    modal_satisfies,
    subjective_reduct,
)
from elps.splitting import enumerate_epistemic_splitting_sets, epistemic_split
from elps.syntax import (
    Atom,
    ObjLit,
    Program,
    SubjLit,
    load_program,
    parse_atom,
    parse_program,
    parse_rule,
)
from helpers import all_interps, all_world_views, wv_of

A, B, C = Atom("a"), Atom("b"), Atom("c")


def project(wv: WorldView, U) -> WorldView:
    """The world view of wv's interpretations restricted to the atoms U."""
    U = frozenset(U)
    return WorldView.of(i & U for i in wv.interps)


def test_world_view_requires_nonempty():
    with pytest.raises(ValueError):
        WorldView(frozenset())


def test_world_view_canonical_order_and_equality():
    left = WorldView.of([[B], [A]])
    right = WorldView.of([[A], [B]])
    assert left == right
    assert left.as_lists() == [["a"], ["b"]]


def test_k_and_m_clauses():
    wv = wv_of("a", "b")
    assert not modal_satisfies(wv, frozenset(), SubjLit("K", ObjLit(A)))
    assert modal_satisfies(wv, frozenset(), SubjLit("M", ObjLit(A)))
    singleton = wv_of("a")
    assert modal_satisfies(singleton, frozenset(), SubjLit("K", ObjLit(A)))


def test_modal_satisfies_rejects_what_is_not_a_construct():
    with pytest.raises(TypeError, match="^unsupported construct 42$"):
        modal_satisfies(wv_of("a"), frozenset(), 42)


def test_subjective_literal_point_independent():
    wv = wv_of("a", "a b")
    for lit in [SubjLit("K", ObjLit(A)), SubjLit("M", ObjLit(B), neg=True), SubjLit("K", ObjLit(B, 1))]:
        values = {
            modal_satisfies(wv, point, lit)
            for point in [frozenset(), frozenset([A]), frozenset([A, B]), frozenset([C])]
        }
        assert len(values) == 1


def test_college_constraint_satisfied():
    wv = wv_of("fair(mike) interview(mike)", "high(mike) eligible(mike) interview(mike)")
    constraint = parse_rule(":- not K interview(mike).")
    assert modal_satisfies(wv, frozenset(), constraint)


def test_is_s5_model_examples():
    pi4 = parse_program("a | b. c :- K a.")
    assert is_s5_model(wv_of("a", "b"), pi4)
    fact = parse_program("a.")
    assert not is_s5_model(wv_of(""), fact)
    assert is_s5_model(wv_of("a"), fact)


def test_project_examples():
    wv = wv_of("a c", "b c")
    assert project(wv, {A, B}) == wv_of("a", "b")
    assert project(wv, {A, B, C}) == wv
    assert project(wv_of("a", "a b"), {A}) == wv_of("a")  # collapse


def test_subjective_reduct_college_top():
    top = Program.of([parse_rule("interview(mike) :- not K eligible(mike), not K -eligible(mike).")])
    wv = wv_of("fair(mike)", "high(mike) eligible(mike)")
    u = {parse_atom(t) for t in
         "fair(mike) high(mike) eligible(mike) minority(mike) -eligible(mike) -fair(mike) -high(mike)".split()}
    reduced = subjective_reduct(top, wv, u)
    assert reduced.rules == (parse_rule("interview(mike) :- not ⊥, not ⊥."),)


def test_subjective_reduct_full_universe_default():
    pi4 = parse_program("a | b. c :- K a.")
    reduced = subjective_reduct(pi4, wv_of("a", "b"))
    assert reduced.rules == (parse_rule("a | b."), parse_rule("c :- ⊥."))


def test_subjective_reduct_identity_without_subjective_literals():
    program = parse_program("a :- not b. c | d.")
    assert subjective_reduct(program, wv_of("a")) == program


_ATOMS3 = (Atom("a"), Atom("b"), Atom("c"))


def _subjective_literals_over(atom):
    for modality in ("K", "M"):
        for negs in (0, 1, 2):
            for outer in (False, True):
                yield SubjLit(modality, ObjLit(atom, negs), outer)


def test_projection_observation_exhaustive():
    # for a subjective literal over atom a: truth only depends on the
    # projection to any side of a split containing a
    atoms = _ATOMS3[:2]  # every world view over 2 atoms
    universe = frozenset(atoms)
    for wv in all_world_views(atoms):
        for u_mask in range(1 << len(atoms)):
            u = frozenset(a for i, a in enumerate(atoms) if u_mask & (1 << i))
            for atom in atoms:
                for lit in _subjective_literals_over(atom):
                    direct = modal_satisfies(wv, frozenset(), lit)
                    if atom in u:
                        assert direct == modal_satisfies(project(wv, u), frozenset(), lit)
                    else:
                        assert direct == modal_satisfies(project(wv, universe - u), frozenset(), lit)


def test_projection_observation_three_atoms_sampled():
    import random

    rng = random.Random(13)
    interps = all_interps(_ATOMS3)
    universe = frozenset(_ATOMS3)
    for _ in range(150):
        wv = WorldView.of(rng.sample(interps, rng.randint(1, 5)))
        u = frozenset(a for a in _ATOMS3 if rng.random() < 0.5)
        atom = rng.choice(_ATOMS3)
        for lit in _subjective_literals_over(atom):
            direct = modal_satisfies(wv, frozenset(), lit)
            if atom in u:
                assert direct == modal_satisfies(project(wv, u), frozenset(), lit)
            else:
                assert direct == modal_satisfies(project(wv, universe - u), frozenset(), lit)


def _reduct_decomposition_holds(program, u, wv):
    split = epistemic_split(program, u)
    wv_b = project(wv, u)
    wv_t = project(wv, program.atoms - u)
    lhs = subjective_reduct(program, wv)
    bottom_reduct = subjective_reduct(split.bottom, wv_b)
    top_reduct = subjective_reduct(subjective_reduct(split.top, wv_b, u), wv_t)
    rhs = Program.of(bottom_reduct.rules + top_reduct.rules)
    return set(lhs.rules) == set(rhs.rules)


def test_reduct_decomposition_on_fixtures():
    college = load_program(
        (__import__("elps.harness", fromlist=["fixtures_dir"]).fixtures_dir() / "college.elp").read_text()
    )
    u = {parse_atom(t) for t in
         "fair(mike) high(mike) eligible(mike) minority(mike) -eligible(mike) -fair(mike) -high(mike)".split()}
    wv = wv_of("fair(mike) interview(mike)", "high(mike) eligible(mike) interview(mike)")
    assert _reduct_decomposition_holds(college, u, wv)

    pi5 = parse_program("a | b. c :- K a. :- not c.")
    assert _reduct_decomposition_holds(pi5, {A, B}, wv_of("a c", "b"))


def test_reduct_decomposition_randomized():
    rng = random.Random(31)
    shape = GeneratorShape(n_atoms=3, max_rules=4, subjective_prob=0.5, m_prob=0.2)
    interps = all_interps(_ATOMS3)
    checked = 0
    for _ in range(80):
        program = random_epistemic_program(rng, shape)
        for u in enumerate_epistemic_splitting_sets(program):
            wv = WorldView.of(rng.sample(interps, rng.randint(1, 4)))
            assert _reduct_decomposition_holds(program, u, wv), (str(program), sorted(map(str, u)))
            checked += 1
    assert checked >= 20


@settings(max_examples=100, deadline=None)
@given(
    mask=st.integers(1, (1 << 8) - 1),
    u_mask=st.integers(0, 7),
)
def test_project_idempotent_and_monotone(mask, u_mask):
    interps = all_interps(_ATOMS3)
    wv = WorldView.of(interps[i] for i in range(8) if mask & (1 << i))
    u = frozenset(a for i, a in enumerate(_ATOMS3) if u_mask & (1 << i))
    projected = project(wv, u)
    assert project(projected, u) == projected
    assert all(i <= u for i in projected.interps)
