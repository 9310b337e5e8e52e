import sys
from collections import Counter

import pytest

from elps import objective, semantics
from elps.engine import REGISTRY, compute_world_views
from elps.harness import fixtures_dir, load_fixture
from elps.semantics import SemanticsId
from elps.splitting import stratify


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

    def world_views(program, sem):
        counts[program, sem] += 1
        return real(program, sem)

    for name, module in list(sys.modules.items()):
        if name == "elps" or name.startswith("elps."):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, world_views)
    return counts


@pytest.fixture
def searches(monkeypatch):
    """Counts the stable-model searches `objective._stable_masks` ran per
    compiled program (`ObjectiveMasks`); one answered from the run memo is
    not counted."""
    counts = Counter()
    real = objective._stable_masks

    def _stable_masks(masks):
        counts[masks] += 1
        return real(masks)

    monkeypatch.setattr(objective, "_stable_masks", _stable_masks)
    return counts


@pytest.fixture(scope="session")
def whole_program():
    """References for g91 and c19 that never split: the registry's `direct`
    whole-program solvers, as they are before a test rebinds them."""
    return {sem: REGISTRY[sem].direct for sem in (SemanticsId.G91, SemanticsId.C19)}


@pytest.fixture(scope="session")
def stratified_world_views(whole_program):
    """The world views of a stratified program under g91 or c19, checked
    against the whole-program loop.  By the paper's corollary to epistemic
    splitting there is at most one."""

    def check(program, sem):
        stratify(program)  # NotStratified otherwise
        views = compute_world_views(program, sem)
        assert len(views) <= 1 and views == whole_program[sem](program), (sem, str(program))
        return views

    return check
