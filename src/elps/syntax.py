"""Textual language, abstract syntax, grounding and normalisation.

The surface language (UTF-8, `%` starts a line comment, statements end in `.`):

    rule       := [head] [":-" body] "."
    head       := atom { ("|" | "v") atom }        # omitted head = constraint
    body       := literal { "," literal }
    literal    := ["not"] ("K" | "M") objlit | objlit
    objlit     := ["not" ["not"]] (atom | "#true" | "#false" | "⊤" | "⊥")
    atom       := ["-"] name [ "(" term { "," term } ")" ]

Capitalised terms are variables, everything else is a constant.  `not`, `K`,
`M` and `v` are reserved words.  Facts omit `:-`; a leading `-` is strong
negation, compiled to a paired atom plus an implicit mutual-exclusion
constraint at normalisation time.

Atoms are ordered lexicographically by their printed form; every set-valued
output downstream is canonicalised with that order, by `interp_key`.

A rule carries its atom sets: `atoms` (the head and every body atom, the atom
under K/M included) and `objective_atoms` (the head and the objective body),
next to its `body_obj` and `body_sub`.  A program is its rules alone and
carries `atoms`, the atoms of those rules: an atom that no rule mentions is
false in every stable model, so it changes no world view.  Each set is
computed on first use and kept on the object, and so is the hash of a rule or
program, which memo keys ask again and again; equality reads the fields only.
A subjective literal keeps its `core()` and its hash the same way, since the
guess loops look each literal's core up in a guess on every guess.  A cached
hash is left out of the pickled state: a `str` hash differs between
interpreters, so a loaded object hashes its fields afresh.
A rule is objective iff its `body_sub` is empty.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Iterable, Iterator, Union

from .errors import CapacityError, GroundingError, ParseError


class TruthConst(enum.Enum):
    TRUE = "⊤"
    FALSE = "⊥"

    def __str__(self) -> str:
        return self.value


TOP = TruthConst.TRUE
BOT = TruthConst.FALSE


def _without_hash(obj) -> dict:
    """The pickled state of an object that caches its hash: all but `_hash`."""
    state = dict(obj.__dict__)
    state.pop("_hash", None)
    return state


def is_variable(term: str) -> bool:
    return term[:1].isupper()


@dataclass(frozen=True)
class Atom:
    name: str
    args: tuple[str, ...] = ()
    strong_neg: bool = False

    def __str__(self) -> str:
        sign = "-" if self.strong_neg else ""
        if self.args:
            return f"{sign}{self.name}({','.join(self.args)})"
        return f"{sign}{self.name}"

    def __lt__(self, other: "Atom") -> bool:
        return str(self) < str(other)

    def positive(self) -> "Atom":
        return Atom(self.name, self.args, False)

    def substitute(self, binding: dict[str, str]) -> "Atom":
        return Atom(self.name, tuple(binding.get(t, t) for t in self.args), self.strong_neg)


@dataclass(frozen=True)
class ObjLit:
    """Objective literal: a truth constant or atom under 0..2 default negations."""

    base: Union[Atom, TruthConst]
    negs: int = 0

    def __post_init__(self):
        if not 0 <= self.negs <= 2:
            raise ValueError(f"negation depth {self.negs} out of range 0..2")

    def __str__(self) -> str:
        return "not " * self.negs + str(self.base)

    @property
    def atom(self) -> Atom | None:
        return self.base if isinstance(self.base, Atom) else None


# one-step default negation; triple negation collapses to single
_NEGATE = {0: 1, 1: 2, 2: 1}


def default_negate(lit: ObjLit) -> ObjLit:
    return ObjLit(lit.base, _NEGATE[lit.negs])


@dataclass(frozen=True)
class SubjLit:
    """Subjective literal: K l, M l, not K l or not M l."""

    modality: str  # "K" or "M"
    inner: ObjLit
    neg: bool = False  # leading default negation

    def __post_init__(self):
        if self.modality not in ("K", "M"):
            raise ValueError(f"unknown modality {self.modality!r}")
        if self.inner.atom is None:
            raise ValueError("modality applied to a truth constant")

    def __str__(self) -> str:
        prefix = "not " if self.neg else ""
        return f"{prefix}{self.modality} {self.inner}"

    @property
    def atom(self) -> Atom:
        return self.inner.base

    def core(self) -> "SubjLit":
        """The literal stripped of its outer default negation; the same
        object on every call."""
        if not self.neg:
            return self
        core = self.__dict__.get("_core")
        if core is None:
            core = self.__dict__["_core"] = SubjLit(self.modality, self.inner, False)
        return core

    def __hash__(self) -> int:
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash((self.modality, self.inner, self.neg))
        return h

    __getstate__ = _without_hash


Literal = Union[ObjLit, SubjLit]


@dataclass(frozen=True)
class Rule:
    head: frozenset[Atom]
    body: tuple[Literal, ...]

    def __str__(self) -> str:
        head_s = " | ".join(str(a) for a in sorted(self.head, key=atom_key))
        body_s = ", ".join(str(l) for l in self.body)
        if not self.head:
            return f":- {body_s}." if self.body else ":- ⊤."
        if not self.body:
            return f"{head_s}."
        return f"{head_s} :- {body_s}."

    @cached_property
    def body_obj(self) -> tuple[ObjLit, ...]:
        return tuple(l for l in self.body if isinstance(l, ObjLit))

    @cached_property
    def body_sub(self) -> tuple[SubjLit, ...]:
        return tuple(l for l in self.body if isinstance(l, SubjLit))

    @cached_property
    def atoms(self) -> frozenset[Atom]:
        """The head and every body atom, the atom under K/M included."""
        return self.head.union(l.atom for l in self.body if l.atom is not None)

    @cached_property
    def objective_atoms(self) -> frozenset[Atom]:
        """The head and the objective body: the atoms outside K/M literals."""
        return self.head.union(l.atom for l in self.body_obj if l.atom is not None)

    def __hash__(self) -> int:
        # kept by hand: a cached_property's first read costs twice the hash
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash((self.head, self.body))
        return h

    __getstate__ = _without_hash

    @property
    def is_subjective_constraint(self) -> bool:
        return not self.head and bool(self.body) and all(isinstance(l, SubjLit) for l in self.body)


@dataclass(frozen=True)
class Program:
    rules: tuple[Rule, ...]

    @classmethod
    def of(cls, rules: Iterable[Rule]) -> "Program":
        return cls(tuple(dict.fromkeys(rules)))

    def __str__(self) -> str:
        return "\n".join(str(r) for r in self.rules)

    @cached_property
    def atoms(self) -> frozenset[Atom]:
        """The atoms of the rules."""
        return frozenset(a for r in self.rules for a in r.atoms)

    def __hash__(self) -> int:
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash(self.rules)
        return h

    __getstate__ = _without_hash


def atom_key(a: Atom) -> str:
    return str(a)


def interp_key(interp: frozenset[Atom]) -> tuple[str, ...]:
    return tuple(sorted(str(a) for a in interp))


def capped_atoms(program: Program, cap: int, search: str) -> list[Atom]:
    """The program's atoms in canonical order; CapacityError past the cap."""
    atoms = sorted(program.atoms, key=atom_key)
    if len(atoms) > cap:
        raise CapacityError(f"{len(atoms)} atoms exceed the {search} cap of {cap}")
    return atoms


def subsets(items: Iterable) -> Iterator[frozenset]:
    """Every subset of `items`, in binary-counter order over their sequence
    (the empty set first, the full set last)."""
    items = tuple(items)
    for mask in range(1 << len(items)):
        yield frozenset(x for i, x in enumerate(items) if mask >> i & 1)


# ---------------------------------------------------------------------------
# parsing


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>%[^\n]*)
      | (?P<arrow>:-)
      | (?P<dot>\.)
      | (?P<comma>,)
      | (?P<pipe>\|)
      | (?P<lpar>\()
      | (?P<rpar>\))
      | (?P<dash>-)
      | (?P<top>\#true|⊤)
      | (?P<bot>\#false|⊥)
      | (?P<name>[A-Za-z_][A-Za-z0-9_]*|[0-9]+)
    """,
    re.VERBOSE,
)

_KEYWORDS = {"not": "not", "K": "mod", "M": "mod", "v": "pipe"}


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
        kind = m.lastgroup
        tok_text = m.group()
        col = pos - line_start + 1
        if kind not in ("ws", "comment"):
            if kind == "name":
                kind = _KEYWORDS.get(tok_text, "name")
            tokens.append(_Token(kind, tok_text, line, col))
        newlines = tok_text.count("\n")
        if newlines:
            line += newlines
            line_start = pos + tok_text.rfind("\n") + 1
        pos = m.end()
    tokens.append(_Token("eof", "", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text!r}", tok.line, tok.col)
        return self.next()

    def fail(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col)

    def program(self) -> Program:
        rules = []
        while self.peek().kind != "eof":
            rules.append(self.rule())
        return Program.of(rules)

    def rule(self) -> Rule:
        head: list[Atom] = []
        body: tuple[Literal, ...] = ()
        if self.peek().kind != "arrow":
            head.append(self.atom())
            while self.peek().kind == "pipe":
                self.next()
                head.append(self.atom())
        if self.peek().kind == "arrow":
            self.next()
            body = self.body()
        self.expect("dot")
        return Rule(frozenset(head), body)

    def body(self) -> tuple[Literal, ...]:
        literals = [self.literal()]
        while self.peek().kind == "comma":
            self.next()
            literals.append(self.literal())
        return tuple(literals)

    def literal(self) -> Literal:
        negs = 0
        while self.peek().kind == "not":
            self.next()
            negs += 1
            if negs > 2:
                self.fail("default negation depth exceeds 2")
            if self.peek().kind == "mod":
                if negs > 1:
                    self.fail("modality under doubled default negation")
                return self.subjective(neg=True)
        if self.peek().kind == "mod":
            return self.subjective(neg=False)
        return self.objective(negs)

    def subjective(self, neg: bool) -> SubjLit:
        mod = self.next().text
        inner_negs = 0
        while self.peek().kind == "not":
            self.next()
            inner_negs += 1
            if inner_negs > 2:
                self.fail("default negation depth exceeds 2")
        tok = self.peek()
        if tok.kind in ("top", "bot"):
            self.fail("modality applied to a truth constant")
        if tok.kind not in ("name", "dash"):
            self.fail(f"expected an atom after {mod!r}")
        return SubjLit(mod, ObjLit(self.atom(), inner_negs), neg)

    def objective(self, negs: int) -> ObjLit:
        tok = self.peek()
        if tok.kind == "top":
            self.next()
            return ObjLit(TOP, negs)
        if tok.kind == "bot":
            self.next()
            return ObjLit(BOT, negs)
        return ObjLit(self.atom(), negs)

    def atom(self) -> Atom:
        strong = False
        if self.peek().kind == "dash":
            self.next()
            strong = True
        tok = self.peek()
        if tok.kind != "name":
            self.fail("expected an atom name")
        if tok.text[0].isdigit() or tok.text[0].isupper():
            self.fail(f"atom name must start with a lowercase letter, found {tok.text!r}")
        self.next()
        args: tuple[str, ...] = ()
        if self.peek().kind == "lpar":
            self.next()
            terms = [self.term()]
            while self.peek().kind == "comma":
                self.next()
                terms.append(self.term())
            self.expect("rpar")
            args = tuple(terms)
        return Atom(tok.text, args, strong)

    def term(self) -> str:
        tok = self.peek()
        if tok.kind != "name":
            self.fail("expected a constant or variable")
        return self.next().text


def parse_program(text: str) -> Program:
    """Parse source text into an AST; no grounding or normalisation."""
    return _Parser(text).program()


def parse_rule(text: str) -> Rule:
    program = parse_program(text)
    if len(program.rules) != 1:
        raise ValueError(f"expected exactly one rule, got {len(program.rules)}")
    return program.rules[0]


def parse_atom(text: str) -> Atom:
    parser = _Parser(text)
    atom = parser.atom()
    parser.expect("eof")
    return atom


# ---------------------------------------------------------------------------
# grounding and normalisation


def _rule_variables(rule: Rule) -> tuple[str, ...]:
    """The rule's variables in order of first occurrence: the head atoms in
    `atom_key` order, then the body in order, so that `ground` lists the
    instances of a rule the same way in every interpreter."""
    atoms = sorted(rule.head, key=atom_key) + [l.atom for l in rule.body if l.atom is not None]
    return tuple(dict.fromkeys(t for a in atoms for t in a.args if is_variable(t)))


def _substitute_rule(rule: Rule, binding: dict[str, str]) -> Rule:
    def sub_lit(lit: Literal) -> Literal:
        if isinstance(lit, ObjLit):
            if lit.atom is None:
                return lit
            return ObjLit(lit.base.substitute(binding), lit.negs)
        return SubjLit(lit.modality, ObjLit(lit.atom.substitute(binding), lit.inner.negs), lit.neg)

    head = frozenset(a.substitute(binding) for a in rule.head)
    return Rule(head, tuple(sub_lit(l) for l in rule.body))


GROUND_MAX_RULES = 10_000  # rule instances `ground` may build, Σ |constants|^|variables|


def ground(program: Program) -> Program:
    """Full Herbrand instantiation: each variable ranges over every constant.
    The instance count is checked before any is built: CapacityError past
    `GROUND_MAX_RULES`."""
    constants = sorted({t for a in program.atoms for t in a.args if not is_variable(t)})
    variables_of = [_rule_variables(rule) for rule in program.rules]
    count = sum(len(constants) ** len(variables) for variables in variables_of)
    if count > GROUND_MAX_RULES:
        raise CapacityError(
            f"grounding makes {count} rule instances, over the grounding cap of {GROUND_MAX_RULES}"
        )
    rules: list[Rule] = []
    for rule, variables in zip(program.rules, variables_of):
        if not variables:
            rules.append(rule)
            continue
        if not constants:
            raise GroundingError(f"rule {rule} has variables but the program has no constants")
        for values in product(constants, repeat=len(variables)):
            rules.append(_substitute_rule(rule, dict(zip(variables, values))))
    return Program.of(rules)


def eliminate_m(program: Program) -> Program:
    """Rewrite M l to not K not' l and not M l to K not' l (K-literals untouched)."""

    def rewrite(lit: Literal) -> Literal:
        if isinstance(lit, SubjLit) and lit.modality == "M":
            return SubjLit("K", default_negate(lit.inner), not lit.neg)
        return lit

    rules = tuple(Rule(r.head, tuple(rewrite(l) for l in r.body)) for r in program.rules)
    return Program.of(rules)


def add_strong_negation_constraints(program: Program) -> Program:
    """Add the implicit constraint `:- a, -a.` for every strongly negated
    atom; `Program.of` keeps a constraint already present where it is."""
    constraints = (
        Rule(frozenset(), (ObjLit(atom.positive()), ObjLit(atom)))
        for atom in sorted(program.atoms, key=atom_key)
        if atom.strong_neg
    )
    return Program.of((*program.rules, *constraints))


def load_program(text: str) -> Program:
    """parse -> ground -> strong-negation closure; the standard input pipeline."""
    return add_strong_negation_constraints(ground(parse_program(text)))


# ---------------------------------------------------------------------------
# truth constants


def const_truth(lit: ObjLit) -> bool | None:
    """Truth value of a constant-based literal, None for atom-based ones."""
    if lit.atom is not None:
        return None
    return (lit.base is TOP) ^ (lit.negs % 2 == 1)
