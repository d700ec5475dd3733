"""Independent verification oracles: model checking and brute-force solving.

Both are deliberately separate from the search engine so they can referee
it.  The brute-force solver enumerates all assignments (vectorised with
numpy, in chunks, so the 26-variable cap stays at desk scale) and returns
the lexicographically first model, treating a model as the tuple
(m[0], ..., m[n-1]) with False < True.  Clauses go through make_clause,
so duplicate literals merge and a tautology rules out no assignment.
"""

from __future__ import annotations

from typing import List, Optional

from .model import Formula, SolveResult, Verdict, make_clause

BRUTE_FORCE_VAR_CAP = 26
_CHUNK_BITS = 20


def check_model(formula: Formula, model: List[bool]) -> bool:
    """True iff the total assignment satisfies every clause.

    Raises ValueError when the model length does not match the formula's
    variable count; a partial assignment cannot be checked.
    """
    return first_falsified_clause(formula, model) is None


def brute_force_solve(formula: Formula) -> SolveResult:
    """Exhaustive solve by enumeration; the ground-truth oracle.

    Returns Sat with the lexicographically first model, or Unsat.  Clauses
    go through make_clause, so a tautology rules out nothing.  Enforces
    BRUTE_FORCE_VAR_CAP since the sweep is exponential.
    """
    # Imported here so that the solver itself never loads numpy.
    import numpy as np

    n = formula.variable_count
    if n > BRUTE_FORCE_VAR_CAP:
        raise ValueError(
            f"brute force capped at {BRUTE_FORCE_VAR_CAP} variables, got {n}"
        )

    # Each clause rules out exactly the assignments where all its literals
    # are false: one (mask, pattern) test per clause.  Assignment index i
    # encodes m[k] in bit (n-1-k) so ascending i is lexicographic order.
    tests = []
    for clause in map(make_clause, formula.clauses):
        if clause is None:
            continue
        mask = 0
        pattern = 0
        for lit in clause:
            bit = 1 << (n - 1 - (lit >> 1))
            mask |= bit
            if lit & 1:
                pattern |= bit
        tests.append((mask, pattern))

    total = 1 << n
    chunk = min(total, 1 << _CHUNK_BITS)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.uint32)
        alive = np.ones(idx.shape, dtype=bool)
        for mask, pattern in tests:
            alive &= (idx & np.uint32(mask)) != np.uint32(pattern)
            if not alive.any():
                break
        hits = np.flatnonzero(alive)
        if hits.size:
            i = start + int(hits[0])
            model = [bool((i >> (n - 1 - k)) & 1) for k in range(n)]
            return SolveResult(Verdict.SAT, model=model)
    return SolveResult(Verdict.UNSAT)


def first_falsified_clause(formula: Formula, model: List[bool]) -> Optional[int]:
    """Index of the first clause the model falsifies, or None.

    Raises ValueError when the model length does not match the formula's
    variable count.
    """
    if len(model) != formula.variable_count:
        raise ValueError(
            f"model has {len(model)} values, formula has "
            f"{formula.variable_count} variables"
        )
    for i, clause in enumerate(formula.clauses):
        for lit in clause:
            if model[lit >> 1] != lit & 1:
                break
        else:
            return i
    return None
