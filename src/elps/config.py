"""Search caps for the exhaustive procedures.

The solver is a desk-scale oracle: every enumeration is bounded and refuses
(with CapacityError) instead of running away.  One cap is a setting:
`SolverLimits.max_atoms` (20, stable-model enumeration), set by `--max-atoms`
or `ELP_MAX_ATOMS`.  The six that no caller sets are constants beside their
use:

- `semantics.MAX_GUESSES` (4096, modal guesses and world views per answer)
- `semantics.BRUTE_MAX_ATOMS` (4, the brute-force oracles)
- `eht.F15_MAX_ATOMS` (3, EHT equilibria and the F15 sample shape)
- `foundedness.FOUNDED_MAX_ATOMS` (12, the unfounded-pair fixpoint)
- `splitting.SPLIT_ENUM_MAX_ATOMS` (12, splitting-set enumeration)
- `syntax.GROUND_MAX_RULES` (10000 rule instances, grounding)

Each constant is read from its module when its check runs, so a test can
change it with `monkeypatch`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

ENV_MAX_ATOMS = "ELP_MAX_ATOMS"


@dataclass(frozen=True)
class SolverLimits:
    """The settable cap: `max_atoms` bounds a stable-model search to
    2^max_atoms interpretations.  `splitting.component_world_views` says
    which caps bound a component and which the whole program."""

    max_atoms: int = 20


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
    return SolverLimits(max_atoms)
