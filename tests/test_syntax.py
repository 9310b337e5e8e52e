import dataclasses
import os
import pickle
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import elps
from elps import syntax
from elps.errors import CapacityError, GroundingError, ParseError
from elps.modal import modal_satisfies
from elps.syntax import (
    BOT,
    TOP,
    Atom,
    ObjLit,
    Program,
    Rule,
    SubjLit,
    TruthConst,
    add_strong_negation_constraints,
    default_negate,
    eliminate_m,
    ground,
    is_variable,
    load_program,
    parse_atom,
    parse_program,
    parse_rule,
)
from helpers import all_world_views


def test_parse_simple_rule():
    rule = parse_rule("a :- not b.")
    assert rule.head == frozenset([Atom("a")])
    assert rule.body == (ObjLit(Atom("b"), 1),)


def test_parse_subjective_body():
    rule = parse_rule("interview(mike) :- not K eligible(mike), not K -eligible(mike).")
    assert rule.head == frozenset([parse_atom("interview(mike)")])
    assert rule.body == (
        SubjLit("K", ObjLit(parse_atom("eligible(mike)")), neg=True),
        SubjLit("K", ObjLit(parse_atom("-eligible(mike)")), neg=True),
    )


def test_parse_disjunction_both_spellings():
    assert parse_rule("a | b.") == parse_rule("a v b.")


def test_parse_fact_and_constraint():
    fact = parse_rule("a.")
    assert fact.head and not fact.body
    constraint = parse_rule(":- a, not b.")
    assert not constraint.head and not constraint.is_subjective_constraint
    assert parse_rule(":- K a, not M b.").is_subjective_constraint


def test_parse_modality_needs_argument():
    with pytest.raises(ParseError):
        parse_program("a :- K.")


def test_parse_modality_on_truth_constant_rejected():
    with pytest.raises(ParseError, match="truth constant"):
        parse_program("a :- K #true.")


def test_parse_negation_depth_capped():
    with pytest.raises(ParseError, match="depth"):
        parse_program("a :- not not not b.")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_program("a :- b.\nc :- K.\n")
    assert exc.value.line == 2
    assert exc.value.col >= 6


@pytest.mark.parametrize(
    "text, message",
    [
        (".", "line 1, column 1: expected an atom name"),
        ("p(,).", "line 1, column 3: expected a constant or variable"),
        ("a :- K not not not b.", "line 1, column 20: default negation depth exceeds 2"),
    ],
)
def test_parse_error_messages(text, message):
    """A statement that does not start with `:-` reads an atom first, so a
    lone `.` fails there."""
    with pytest.raises(ParseError) as exc:
        parse_program(text)
    assert str(exc.value) == message


def test_parse_rule_wants_exactly_one_rule():
    with pytest.raises(ValueError, match="^expected exactly one rule, got 2$"):
        parse_rule("a. b.")


def test_literals_built_by_hand_are_checked():
    """The parser never builds these; a literal made in code is checked
    when it is made."""
    a = Atom("a")
    with pytest.raises(ValueError, match=r"^negation depth 3 out of range 0\.\.2$"):
        ObjLit(a, 3)
    with pytest.raises(ValueError, match="^unknown modality 'X'$"):
        SubjLit("X", ObjLit(a))
    with pytest.raises(ValueError, match="^modality applied to a truth constant$"):
        SubjLit("K", ObjLit(TOP))


def test_parse_truth_constants_ascii_and_unicode():
    assert parse_rule("a :- #true, not #false.") == parse_rule("a :- ⊤, not ⊥.")


def test_strong_negation_atom_is_distinct():
    assert parse_atom("-p(c)") != parse_atom("p(c)")
    assert parse_atom("-p(c)").positive() == parse_atom("p(c)")


def test_roundtrip_on_fixture_corpus(corpus_dir):
    for path in sorted(corpus_dir.glob("*.elp")):
        program = parse_program(path.read_text(encoding="utf-8"))
        assert parse_program(str(program)) == program


_names = st.sampled_from(["p", "q", "r"])
_atoms = st.builds(
    Atom,
    name=_names,
    args=st.sampled_from([(), ("c1",), ("c1", "c2")]),
    strong_neg=st.booleans(),
)
_objlits = st.builds(ObjLit, base=st.one_of(_atoms, st.sampled_from([TOP, BOT])), negs=st.integers(0, 2))
_subjlits = st.builds(
    SubjLit,
    modality=st.sampled_from(["K", "M"]),
    inner=st.builds(ObjLit, base=_atoms, negs=st.integers(0, 2)),
    neg=st.booleans(),
)
_rules = st.builds(
    Rule,
    head=st.frozensets(_atoms, max_size=2),
    body=st.lists(st.one_of(_objlits, _subjlits), max_size=3).map(tuple),
).filter(lambda r: r.head or r.body)


@settings(max_examples=200, deadline=None)
@given(st.lists(_rules, min_size=1, max_size=5))
def test_roundtrip_pretty_print_parse(rules):
    program = Program.of(rules)
    assert parse_program(str(program)) == program


def test_ground_college_instantiates_to_five_rules(corpus_dir):
    parsed = parse_program((corpus_dir / "college.elp").read_text(encoding="utf-8"))
    grounded = ground(parsed)
    assert len(grounded.rules) == 5
    assert not any(is_variable(t) for a in grounded.atoms for t in a.args)
    assert parse_rule("eligible(mike) :- high(mike).") in grounded.rules
    assert parse_rule(
        "interview(mike) :- not K eligible(mike), not K -eligible(mike)."
    ) in grounded.rules


def test_ground_identity_on_ground_programs():
    program = parse_program("a :- b. c(d).")
    assert ground(program) == program


def test_ground_idempotent(corpus_dir):
    for path in sorted(corpus_dir.glob("*.elp")):
        grounded = ground(parse_program(path.read_text(encoding="utf-8")))
        assert ground(grounded) == grounded


def test_ground_two_constants():
    program = parse_program("p(X) :- q(X). q(c1). q(c2).")
    grounded = ground(program)
    assert parse_rule("p(c1) :- q(c1).") in grounded.rules
    assert parse_rule("p(c2) :- q(c2).") in grounded.rules
    assert len(grounded.rules) == 4


def test_ground_refuses_past_its_cap_before_building(monkeypatch):
    facts = " ".join(f"q(c{i})." for i in range(20))
    rule = "p(X1,X2,X3,X4,X5,X6) :- q(X1), q(X2), q(X3), q(X4), q(X5), q(X6)."
    monkeypatch.setattr(syntax, "_substitute_rule", lambda *args: pytest.fail("an instance was built"))
    with pytest.raises(CapacityError, match="grounding makes 64000020 rule instances"):
        ground(parse_program(facts + rule))


def test_ground_cap_counts_every_instance(monkeypatch):
    program = parse_program("p(X) :- q(X). q(c1). q(c2).")  # 2 + 1 + 1 instances
    monkeypatch.setattr(syntax, "GROUND_MAX_RULES", 4)
    assert len(ground(program).rules) == 4
    monkeypatch.setattr(syntax, "GROUND_MAX_RULES", 3)
    with pytest.raises(CapacityError, match="4 rule instances, over the grounding cap of 3"):
        ground(program)


def test_ground_requires_constants():
    with pytest.raises(GroundingError):
        ground(parse_program("p(X) :- q(X)."))


def test_ground_order_does_not_depend_on_string_hashing():
    # no atom holds both variables, so their order comes from the rule's
    # shape (first occurrence), not from the hash order of its atom set
    text = "s :- q(X), r(Y), not t(X,Y). q(a). r(b)."
    src = str(Path(elps.__file__).resolve().parent.parent)
    code = f"from elps.syntax import load_program; print(load_program({text!r}))"
    outputs = {
        subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": str(seed)},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for seed in range(7)
    }
    assert outputs == {str(load_program(text)) + "\n"}
    instances = [str(r) for r in load_program(text).rules if r.head == {parse_atom("s")}]
    assert instances[:2] == ["s :- q(a), r(a), not t(a,a).", "s :- q(a), r(b), not t(a,b)."]


def test_eliminate_m_rewrites():
    assert eliminate_m(Program.of([parse_rule("a :- M b.")])).rules[0] == parse_rule(
        "a :- not K not b."
    )
    assert eliminate_m(Program.of([parse_rule("a :- not M b.")])).rules[0] == parse_rule(
        "a :- K not b."
    )
    # triple negation collapses
    assert eliminate_m(Program.of([parse_rule("a :- M not not b.")])).rules[0] == parse_rule(
        "a :- not K not b."
    )
    unchanged = parse_program("a :- K b. c :- not d.")
    assert eliminate_m(unchanged) == unchanged


def test_default_negate_collapses_triple():
    lit = ObjLit(Atom("a"), 2)
    assert default_negate(lit).negs == 1


def test_eliminate_m_preserves_modal_satisfaction():
    # exhaustive over two atoms (all world views and points); spot checks on a
    # third atom keep the three-atom case covered without the full blow-up
    atoms = [Atom("a"), Atom("b")]
    rules = [
        parse_rule("a :- M b."),
        parse_rule("a :- not M b."),
        parse_rule(":- M not a, K b."),
        parse_rule("b :- M not not a, not b."),
        parse_rule("a | b :- M a, not K not b."),
    ]
    points = [frozenset(), frozenset([atoms[0]]), frozenset(atoms)]
    for rule in rules:
        rewritten = eliminate_m(Program.of([rule])).rules[0]
        for wv in all_world_views(atoms):
            for point in points:
                assert modal_satisfies(wv, point, rule) == modal_satisfies(wv, point, rewritten)


def test_eliminate_m_preserves_modal_satisfaction_three_atoms():
    import random

    atoms = [Atom("a"), Atom("b"), Atom("c")]
    rule = parse_rule("a | c :- M not b, not M c, K a.")
    rewritten = eliminate_m(Program.of([rule])).rules[0]
    interps = [frozenset(a for i, a in enumerate(atoms) if m & (1 << i)) for m in range(8)]
    rng = random.Random(9)
    for wv in all_world_views(atoms):
        point = rng.choice(interps)
        assert modal_satisfies(wv, point, rule) == modal_satisfies(wv, point, rewritten)


def test_strong_negation_constraints_added():
    program = load_program("-p. q :- not -p.")
    assert parse_rule(":- p, -p.") in program.rules
    # idempotent
    assert add_strong_negation_constraints(program) == program


def test_program_dedup_and_universe():
    program = Program.of([parse_rule("a :- b."), parse_rule("c."), parse_rule("a :- b.")])
    assert program.rules == (parse_rule("a :- b."), parse_rule("c."))
    assert program.atoms == {Atom("a"), Atom("b"), Atom("c")}
    assert [f.name for f in dataclasses.fields(Program)] == ["rules"]


def _walked_atoms(construct) -> frozenset:
    """Every atom of an atom, truth constant, literal, rule, program or
    iterable of them, by walking the syntax tree: the reference for the
    cached atom sets of `Rule` and `Program`."""
    if isinstance(construct, Atom):
        return frozenset([construct])
    if isinstance(construct, TruthConst):
        return frozenset()
    if isinstance(construct, ObjLit):
        return _walked_atoms(construct.base)
    if isinstance(construct, SubjLit):
        return _walked_atoms(construct.inner)
    if isinstance(construct, Rule):
        return frozenset(construct.head) | _walked_atoms(construct.body)
    if isinstance(construct, Program):
        return _walked_atoms(construct.rules)
    return frozenset().union(*map(_walked_atoms, construct))


_POOL = [Atom("a"), Atom("b"), Atom("a", strong_neg=True), Atom("p", ("c",)), Atom("q", ("c", "d"), True),
         Atom("e"), Atom("f"), Atom("g")]


def _random_literal(rng: random.Random, atoms):
    roll = rng.random()
    if roll < 0.15:
        return ObjLit(rng.choice([TOP, BOT]), rng.randint(0, 2))
    if roll < 0.6:
        return ObjLit(rng.choice(atoms), rng.randint(0, 2))
    inner = ObjLit(rng.choice(atoms), rng.randint(0, 2))
    return SubjLit(rng.choice("KM"), inner, rng.random() < 0.5)


def _random_program(rng: random.Random) -> Program:
    """1-6 atoms; truth constants, strong negation, K and M literals and
    atomless constraints."""
    atoms = rng.sample(_POOL, rng.randint(1, 6))
    rules = []
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.1:  # an atomless constraint
            rules.append(Rule(frozenset(), (ObjLit(rng.choice([TOP, BOT]), rng.randint(0, 2)),)))
            continue
        head = frozenset(rng.sample(atoms, rng.randint(0, min(2, len(atoms)))))
        rules.append(Rule(head, tuple(_random_literal(rng, atoms) for _ in range(rng.randint(not head, 3)))))
    return Program.of(rules)


def test_atom_sets_match_the_walked_syntax_tree():
    rng = random.Random(1313)
    seen = Counter()
    for _ in range(600):
        program = _random_program(rng)
        lits = [l for r in program.rules for l in r.body]
        seen["truth constant"] += any(isinstance(l, ObjLit) and l.atom is None for l in lits)
        seen["strong negation"] += any(a.strong_neg for a in _walked_atoms(program))
        seen["M literal"] += any(isinstance(l, SubjLit) and l.modality == "M" for l in lits)
        seen["atomless constraint"] += any(not r.head and not _walked_atoms(r) for r in program.rules)
        for rule in program.rules:
            objective = tuple(l for l in rule.body if isinstance(l, ObjLit))
            assert rule.atoms == _walked_atoms(rule), str(rule)
            assert rule.objective_atoms == rule.head | _walked_atoms(objective), str(rule)
            assert rule.body_obj == objective
            assert rule.body_sub == tuple(l for l in rule.body if isinstance(l, SubjLit))
        assert program.atoms == _walked_atoms(program), str(program)
        # the cached sets and hash leave equality to the fields, and the hash
        # is the one of the fields' values
        hash(program)
        fresh = Program(tuple(Rule(r.head, r.body) for r in program.rules))
        assert {"atoms", "_hash"} <= vars(program).keys()
        assert not {"atoms", "_hash"} & vars(fresh).keys()
        assert fresh == program and hash(fresh) == hash(program) == hash(program.rules)
        assert {program: True}.get(fresh) and {fresh: True}.get(program)
        for rule, fresh_rule in zip(program.rules, fresh.rules):
            assert {"atoms", "objective_atoms", "body_obj", "body_sub", "_hash"} <= vars(rule).keys()
            assert "atoms" not in vars(fresh_rule)
            assert fresh_rule == rule and hash(fresh_rule) == hash(rule) == hash((rule.head, rule.body))
    assert min(seen.values()) > 10, seen


def test_subjective_literal_keeps_its_core_and_hash():
    program = parse_program("a :- not K b, not M not c, K d. e :- not K b.")
    for lit in (l for r in program.rules for l in r.body_sub):
        core = lit.core()
        assert lit.core() is core and core.core() is core
        assert core == SubjLit(lit.modality, lit.inner) and not core.neg
        fresh = SubjLit(lit.modality, lit.inner, lit.neg)
        hash(lit)
        assert "_hash" in vars(lit) and not {"_hash", "_core"} & vars(fresh).keys()
        assert hash(lit) == hash(fresh) == hash((lit.modality, lit.inner, lit.neg))
        assert hash(core) == hash(fresh.core())
        # the cached entries are not fields: equality, repr and asdict ignore them
        assert lit == fresh and repr(lit) == repr(fresh)
        assert dataclasses.asdict(lit) == dataclasses.asdict(fresh)
        assert dataclasses.asdict(lit).keys() == {"modality", "inner", "neg"}
    # only a negated literal stores its core; any other is its own core
    negated, positive = program.rules[0].body[0], program.rules[0].body[2]
    assert "_core" in vars(negated) and "_core" not in vars(positive) and positive.core() is positive


_PICKLE_DUMP = """
import pickle, sys
from elps.syntax import parse_program
program = parse_program(sys.argv[2])
hash(program)
for rule in program.rules:
    rule.atoms
    for lit in rule.body_sub:
        hash(lit), hash(lit.core())
with open(sys.argv[1], "wb") as f:
    pickle.dump(program, f)
"""

_PICKLE_LOAD = """
import pickle, sys
from elps.syntax import Program, parse_program
with open(sys.argv[1], "rb") as f:
    loaded = pickle.load(f)
fresh = parse_program(sys.argv[2])
lits = [(l, f) for r, q in zip(loaded.rules, fresh.rules) for l, f in zip(r.body_sub, q.body_sub)]
checks = [
    loaded == fresh,
    loaded in {fresh},
    Program.of(loaded.rules) in {Program.of(fresh.rules)},
    all(r == q and r in {q} and r.atoms == q.atoms for r, q in zip(loaded.rules, fresh.rules)),
    all(l in {f} and l.core() in {f.core()} for l, f in lits),
]
print(checks)
"""


def test_pickled_objects_hash_afresh_in_another_interpreter(tmp_path):
    # a str hash differs between interpreters: a cached hash that crossed
    # over would put an equal object in another bucket
    text = "a :- not K b, M c, not d. b | c :- not M not a. :- K a, not K c."
    src = str(Path(elps.__file__).resolve().parent.parent)
    path = tmp_path / "program.pickle"
    for hash_seed, code in (("1", _PICKLE_DUMP), ("2", _PICKLE_LOAD)):
        done = subprocess.run(
            [sys.executable, "-c", code, str(path), text],
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed},
            capture_output=True,
            text=True,
            check=True,
        )
    assert done.stdout.strip() == str([True] * 5)
    program = parse_program(text)
    hash(program)
    loaded = pickle.loads(pickle.dumps(program))
    assert "_hash" not in vars(loaded)
    for rule in loaded.rules:
        assert "_hash" not in vars(rule)
        for lit in rule.body_sub:
            assert "_hash" not in vars(lit)
