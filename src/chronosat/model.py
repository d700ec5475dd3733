"""Core data model: literals, clauses, formulas, solver configuration and results.

Literals are plain ints.  Variable ``v`` (0-based) has positive literal
``2*v`` and negative literal ``2*v + 1``, so negation flips the low bit and
the encoding is a bijection onto the non-negative ints: ``l >> 1`` is the
variable, ``l & 1`` the sign bit and ``l ^ 1`` the negation.  A formula
clause is a plain tuple of literals.
"""

from __future__ import annotations

import enum
import functools
import gc
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, List, Optional, Tuple, TypeVar

_T = TypeVar("_T")


def _collector_paused(func: Callable[..., _T]) -> Callable[..., _T]:
    """Decorate func to run with the cyclic collector paused, process-wide,
    for the call's duration; the caller's state is restored after, also
    when func raises.

    Parsing, solver construction and search allocate clauses and literal
    lists that form no cycles, so reference counting frees them; collections
    during those calls would only rescan them.  The wrapper allocates
    nothing once it has re-enabled the collector, so no collection starts
    while it still holds the call's arguments and result.
    """

    @functools.wraps(func)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return func(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


def make_literal(var: int, positive: bool) -> int:
    """Encode (variable index, polarity) as an int literal."""
    if var < 0:
        raise ValueError("variable index must be non-negative")
    return 2 * var + (0 if positive else 1)


def lit_from_dimacs(n: int) -> int:
    """Convert a signed 1-based DIMACS int to an encoded literal."""
    if n == 0:
        raise ValueError("0 is not a DIMACS literal")
    v = abs(n) - 1
    return 2 * v + (0 if n > 0 else 1)


def lit_to_dimacs(lit: int) -> int:
    """Convert an encoded literal back to a signed 1-based DIMACS int."""
    v = (lit >> 1) + 1
    return v if (lit & 1) == 0 else -v


def make_clause(lits) -> Optional[Tuple[int, ...]]:
    """Build a clause, dropping duplicate literals.

    Returns None when the literals contain a complementary pair (the clause
    is a tautology and carries no constraint).  First occurrence order is
    preserved.  An empty literal list is a legal (unsatisfiable) clause.
    """
    seen = set()
    out = []
    for l in lits:
        if l in seen:
            continue
        if (l ^ 1) in seen:
            return None
        seen.add(l)
        out.append(l)
    return tuple(out)


@dataclass
class Formula:
    """A CNF formula over variables 0..variable_count-1.

    The constructor checks every literal, and raises ValueError naming the
    first one that is not an int (a bool is not) or lies outside
    0 <= l < 2 * variable_count.  parse_dimacs builds its Formula through
    _trusted_formula instead, which skips that pass, because the reader
    has already checked each literal it read.
    """

    variable_count: int
    clauses: List[Tuple[int, ...]] = field(default_factory=list)

    def __post_init__(self):
        if type(self.variable_count) is not int or self.variable_count < 0:
            raise ValueError(
                f"variable_count must be an int >= 0, got {self.variable_count!r}"
            )
        # A literal is an int (not a bool) with 0 <= l < 2 * variable_count.
        # One set of types, one min and one max over all literals decide it
        # (a min and a max per clause cost more than a Python comparison per
        # literal), and only a failure is walked literal by literal to name
        # the first offender: a negative one has no DIMACS spelling, so its
        # encoded value is named.
        lits = list(chain.from_iterable(self.clauses))
        if lits and (
            set(map(type, lits)) != {int}
            or min(lits) < 0
            or max(lits) >= 2 * self.variable_count
        ):
            for c in self.clauses:
                for l in c:
                    if type(l) is not int:
                        raise ValueError(f"literal {l!r} is not an int")
                    if not (0 <= l >> 1 < self.variable_count):
                        name = f"literal {lit_to_dimacs(l)}" if l >= 0 else f"encoded literal {l}"
                        raise ValueError(
                            f"{name} out of range for {self.variable_count} variables"
                        )

    @property
    def clause_count(self) -> int:
        return len(self.clauses)


def _trusted_formula(variable_count: int, clauses: List[Tuple[int, ...]]) -> Formula:
    """A Formula built without Formula's range pass; for parse_dimacs alone.

    That pass can never fail on the reader's output, because both of the
    reader's paths range-check every literal of a parsed clause once
    already.  The fast path's table holds only the canonical spellings of
    1..nvars and -1..-nvars for the header's nvars, and the token reader
    raises DimacsError for an int() whose absolute value exceeds nvars; a
    header with nvars < 0 is rejected.
    """
    formula = Formula.__new__(Formula)
    formula.variable_count = variable_count
    formula.clauses = clauses
    return formula


class PhaseHeuristic(str, enum.Enum):
    SAVED = "saved"
    RANDOM = "random"
    ALWAYS_FALSE = "false"
    OPPOSITE_SAVED = "opposite"
    DPS = "dps"
    LSIDS = "lsids"


class RestartPolicy(str, enum.Enum):
    LUBY = "luby"
    GLUCOSE = "glucose"


class Verdict(enum.Enum):
    SAT = "SAT"
    UNSAT = "UNSAT"
    UNKNOWN = "UNKNOWN"


@dataclass
class SolverConfig:
    """Knobs for the search.

    The backtracking hybrid is controlled by two thresholds: for the first
    cb_min_conflicts_c conflicts every backtrack is non-chronological; after
    that a conflict whose jump distance (current level minus analysis level)
    exceeds cb_threshold_t backtracks chronologically to the previous level.
    Phase selection is dispatched on the solver's backtrack mode:
    ncb_phase_heuristic applies while the last backtrack was
    non-chronological, cb_phase_heuristic while it was chronological.
    time_limit_seconds is checked once per search step (one propagation to
    fixpoint and what follows it), so a solve stops at the first step that
    begins after the limit.
    """

    cb_threshold_t: int = 100
    cb_min_conflicts_c: int = 4000
    ncb_phase_heuristic: PhaseHeuristic = PhaseHeuristic.SAVED
    cb_phase_heuristic: PhaseHeuristic = PhaseHeuristic.LSIDS
    dps_decay: float = 0.7
    random_seed: int = 0
    restart_policy: RestartPolicy = RestartPolicy.LUBY
    luby_base: int = 100
    clause_db_init_limit: int = 2000
    time_limit_seconds: Optional[float] = None

    def __post_init__(self):
        # These knobs are compared with counters: a NaN one fails every
        # comparison and silently switches its rule off.  A None seed would
        # seed from the OS.
        for name, minimum in (
            ("cb_threshold_t", 0),
            ("cb_min_conflicts_c", 0),
            ("luby_base", 1),
            ("clause_db_init_limit", 1),
            ("random_seed", None),
        ):
            value = getattr(self, name)
            if type(value) is not int or minimum is not None and value < minimum:
                bound = "" if minimum is None else f" >= {minimum}"
                raise ValueError(f"{name} must be an int{bound}, got {value!r}")
        if not (0.0 < self.dps_decay < 1.0):
            raise ValueError("dps_decay must lie strictly inside (0, 1)")
        limit = self.time_limit_seconds
        # NaN fails the range test too; True would pass it as a 1 s limit.
        if limit is not None and (isinstance(limit, bool) or not 0 < limit < float("inf")):
            raise ValueError("time_limit_seconds must be finite and positive")
        self.ncb_phase_heuristic = PhaseHeuristic(self.ncb_phase_heuristic)
        self.cb_phase_heuristic = PhaseHeuristic(self.cb_phase_heuristic)
        self.restart_policy = RestartPolicy(self.restart_policy)


@dataclass
class SolverStats:
    """Deterministic search counters plus measured wall time.

    Counters are reproducible for a fixed (formula, config, seed); wall time
    is not.  lsids_decisions counts decisions where the LSIDS heuristic chose
    the phase; lsids_differs_from_saved counts the subset whose choice
    disagreed with the saved phase.  cb_state_decisions counts decisions
    made while the last backtrack was chronological, the only ones the cb
    heuristic decides; the engine counts it at each decision, whatever
    selector chose the phase.  It is not one of the reported counters.
    """

    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    restarts: int = 0
    cb_backtracks: int = 0
    ncb_backtracks: int = 0
    lsids_decisions: int = 0
    lsids_differs_from_saved: int = 0
    cb_state_decisions: int = 0
    wall_time_seconds: float = 0.0

    def counter_items(self):
        """(name, value) pairs for the deterministic counters, fixed order."""
        return [
            ("conflicts", self.conflicts),
            ("decisions", self.decisions),
            ("propagations", self.propagations),
            ("restarts", self.restarts),
            ("cb_backtracks", self.cb_backtracks),
            ("ncb_backtracks", self.ncb_backtracks),
            ("lsids_decisions", self.lsids_decisions),
            ("lsids_differs_saved", self.lsids_differs_from_saved),
        ]


@dataclass
class SolveResult:
    verdict: Verdict
    model: Optional[List[bool]] = None
    stats: SolverStats = field(default_factory=SolverStats)

    def __post_init__(self):
        if self.verdict is Verdict.SAT and self.model is None:
            raise ValueError("SAT result requires a model")
        if self.verdict is not Verdict.SAT and self.model is not None:
            raise ValueError("only SAT results carry a model")
