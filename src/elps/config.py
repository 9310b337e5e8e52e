"""Search caps for the exhaustive procedures.

The solver is a desk-scale oracle: every enumeration is bounded and refuses
(with CapacityError) instead of running away.  `SolverLimits` holds the caps
a caller may set; the three that none sets are constants beside their one
use, `semantics.BRUTE_MAX_ATOMS` (4, the brute-force oracles),
`splitting.SPLIT_ENUM_MAX_ATOMS` (12, splitting-set enumeration) and
`syntax.GROUND_MAX_RULES` (10,000 rule instances, grounding).
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

ENV_MAX_ATOMS = "ELP_MAX_ATOMS"


@dataclass(frozen=True)
class SolverLimits:
    """G91 and C19 solve one closed component at a time: there `max_guesses`
    and `founded_max_atoms` bound each component, `max_atoms` still bounds
    the whole program (so no world view exceeds 2^max_atoms
    interpretations), and an answer of more than `max_guesses` world views
    is refused.  The other semantics apply every cap to the whole program."""

    max_atoms: int = 20          # stable-model candidate enumeration (2^n interpretations)
    max_guesses: int = 4096      # modal-guess space for world-view search (2^#cores); world views per answer
    f15_max_atoms: int = 3       # EHT equilibrium machinery
    founded_max_atoms: int = 12  # unfounded-pair fixpoint


DEFAULT_LIMITS = SolverLimits()


def resolve_limits(max_atoms: int | None = None) -> SolverLimits:
    """Build limits for the CLI: an explicit --max-atoms sets the cap, else
    the ELP_MAX_ATOMS env var does, else the default stands.  A negative
    cap is refused with a ValueError that names it."""
    source = "--max-atoms"
    if max_atoms is None:
        env = os.environ.get(ENV_MAX_ATOMS)
        if env is None:
            return DEFAULT_LIMITS
        source = ENV_MAX_ATOMS
        try:
            max_atoms = int(env)
        except ValueError as exc:
            raise ValueError(f"{ENV_MAX_ATOMS} must be an integer, got {env!r}") from exc
    if max_atoms < 0:
        raise ValueError(f"{source} must not be negative, got {max_atoms}")
    return dataclasses.replace(DEFAULT_LIMITS, max_atoms=max_atoms)
