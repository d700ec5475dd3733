"""chronosat: a CDCL SAT solver with hybrid chronological backtracking.

The engine pairs standard conflict-driven clause learning with a
level-aware backtracking policy: conflicts close to the top of the search
go through ordinary non-chronological backjumping, while conflicts far
below it (gap > T, after a warm-up of C conflicts) backtrack one level
chronologically.  Phase selection is pluggable per backtracking state.
"""

from .dimacs import (
    DimacsError,
    parse_dimacs,
    parse_dimacs_file,
    parse_model,
    render_result,
    write_dimacs,
)
from .engine import Clause, Solver, choose_backtrack_level, luby, solve_formula
from .gen import deep_conflict, pigeonhole, random_ksat
from .model import (
    Formula,
    PhaseHeuristic,
    RestartPolicy,
    SolveResult,
    SolverConfig,
    SolverStats,
    Verdict,
    lit_from_dimacs,
    lit_to_dimacs,
    make_clause,
    make_literal,
)
from .phase import PhaseSelector
from .verify import brute_force_solve, check_model

__version__ = "0.1.0"

__all__ = [
    "Clause",
    "DimacsError",
    "Formula",
    "PhaseHeuristic",
    "PhaseSelector",
    "RestartPolicy",
    "SolveResult",
    "Solver",
    "SolverConfig",
    "SolverStats",
    "Verdict",
    "brute_force_solve",
    "check_model",
    "choose_backtrack_level",
    "deep_conflict",
    "lit_from_dimacs",
    "lit_to_dimacs",
    "luby",
    "make_clause",
    "make_literal",
    "parse_dimacs",
    "parse_dimacs_file",
    "parse_model",
    "pigeonhole",
    "random_ksat",
    "render_result",
    "solve_formula",
    "write_dimacs",
]
