"""Desk-scale solver for ground epistemic logic programs."""

from .engine import brute_force_world_views, compute_world_views
from .errors import (
    CapacityError,
    ElpError,
    GroundingError,
    NotAnEpistemicSplittingSet,
    NotASplittingSet,
    NotObjectiveError,
    NotStratified,
    ParseError,
    UnsupportedMLiteral,
)
from .modal import WorldView, is_s5_model, modal_satisfies, project, subjective_reduct
from .objective import (
    classical_satisfies,
    objective_reduct,
    objective_solutions,
    objective_split,
    stable_models,
)
from .semantics import (
    SemanticsId,
    s17_world_views,
    semantics_reduct,
    world_views,
)
from .splitting import (
    check_constraint_monotonicity,
    check_epistemic_splitting,
    combine,
    dep_relation,
    enumerate_epistemic_splitting_sets,
    epistemic_solutions,
    epistemic_split,
    stratify,
    top_simplification,
)
from .syntax import (
    Atom,
    ObjLit,
    Program,
    Rule,
    SubjLit,
    eliminate_m,
    ground,
    load_program,
    parse_atom,
    parse_program,
    parse_rule,
)

__all__ = [name for name in dir() if not name.startswith("_")]
