"""Desk-scale solver for ground epistemic logic programs.

The package root holds the registry's front door and nothing else: parse a
program, solve it (or ask its oracle) under a semantics, and the error a cap
raises.  Every other name is imported from its module."""

from .engine import brute_force_world_views, compute_world_views
from .errors import CapacityError
from .semantics import SemanticsId
from .syntax import load_program

__all__ = ["load_program", "compute_world_views", "brute_force_world_views", "SemanticsId", "CapacityError"]
