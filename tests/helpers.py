"""Helpers shared by the test modules: `from helpers import wv_of`."""

from elps.modal import WorldView
from elps.syntax import parse_atom, parse_program

KA = parse_program("a :- K a.")


def wv_of(*texts) -> WorldView:
    """wv_of("a b", "") builds the world view [[a,b], []]."""
    return WorldView.of([parse_atom(t) for t in text.split()] for text in texts)


def all_interps(atoms) -> list:
    """Every interpretation over `atoms`, bit i of the index standing for atoms[i]."""
    return [frozenset(a for i, a in enumerate(atoms) if m & (1 << i)) for m in range(1 << len(atoms))]


def all_world_views(atoms):
    """Every world view over `atoms`, each a non-empty set of `all_interps(atoms)`."""
    interps = all_interps(atoms)
    for mask in range(1, 1 << len(interps)):
        yield WorldView.of(interps[i] for i in range(len(interps)) if mask & (1 << i))
