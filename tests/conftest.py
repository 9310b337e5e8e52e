import sys
from collections import Counter

import pytest

from elps import semantics
from elps.config import DEFAULT_LIMITS
from elps.harness import fixtures_dir, load_fixture
from elps.modal import WorldView, world_views_to_json
from elps.syntax import parse_atom


def wv_of(*interps: str) -> WorldView:
    """wv_of("a b", "") builds the world view [[a,b], []]."""
    return WorldView.of([parse_atom(tok) for tok in text.split()] for text in interps)


def views(world_view_set) -> list:
    return world_views_to_json(world_view_set)


@pytest.fixture(scope="session")
def corpus():
    names = ["pi1", "ab", "ce1a", "ce1b", "ce2", "ka", "college", "college3", "lamps"]
    return {name: load_fixture(name) for name in names}


@pytest.fixture(scope="session")
def corpus_dir():
    return fixtures_dir()


@pytest.fixture
def guess_loops(monkeypatch):
    """Counts the runs of the guess loop `semantics.world_views` per
    (program, semantics), wrapped in every module that holds it."""
    counts = Counter()
    real = semantics.world_views

    def world_views(program, sem, limits=DEFAULT_LIMITS):
        counts[program, sem] += 1
        return real(program, sem, limits)

    for name, module in list(sys.modules.items()):
        if name == "elps" or name.startswith("elps."):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, world_views)
    return counts
