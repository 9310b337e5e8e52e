"""Search caps for the exhaustive procedures.

The solver is a desk-scale oracle: every enumeration is bounded and refuses
(with CapacityError) instead of running away.  Each cap is a constant beside
its use.  One of them is a setting: the CLI sets `objective.MAX_ATOMS` (20,
stable-model enumeration) from `--max-atoms` or `ELP_MAX_ATOMS` for the one
command it runs.  No caller sets the other six:

- `semantics.MAX_GUESSES` (4096, modal guesses and world views per answer)
- `semantics.BRUTE_MAX_ATOMS` (4, the brute-force oracles)
- `eht.F15_MAX_ATOMS` (3, EHT equilibria and the F15 sample shape)
- `foundedness.FOUNDED_MAX_ATOMS` (12, the unfounded-pair fixpoint)
- `splitting.SPLIT_ENUM_MAX_ATOMS` (12, splitting-set enumeration)
- `syntax.GROUND_MAX_RULES` (10000 rule instances, grounding)

Each constant is read through its module when its check runs, never copied
by a from-import, so the CLI and a test's `monkeypatch` reach every read.
The run memo (`engine.solve_memo`) does not key its answers by a cap, so a
cap must not change while a memo is open.
"""

from __future__ import annotations

import os

ENV_MAX_ATOMS = "ELP_MAX_ATOMS"


def resolve_max_atoms(max_atoms: int | None = None) -> int | None:
    """The atom cap the CLI sets: an explicit --max-atoms, else the
    ELP_MAX_ATOMS env var, else None (the default stands).  A negative cap
    is refused with a ValueError that names it."""
    source = "--max-atoms"
    if max_atoms is None:
        env = os.environ.get(ENV_MAX_ATOMS)
        if env is None:
            return None
        source = ENV_MAX_ATOMS
        try:
            max_atoms = int(env)
        except ValueError as exc:
            raise ValueError(f"{ENV_MAX_ATOMS} must be an integer, got {env!r}") from exc
    if max_atoms < 0:
        raise ValueError(f"{source} must not be negative, got {max_atoms}")
    return max_atoms
