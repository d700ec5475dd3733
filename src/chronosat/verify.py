"""Independent verification oracles: model checking and brute-force solving.

Both are deliberately separate from the search engine so they can referee
it.  The brute-force solver enumerates all assignments in blocks that fix
the first n - 16 variables and hold the 2^16 assignments of the rest as
the bits of one Python int, so the 26-variable cap stays at desk scale.
It returns the lexicographically first model, treating a model as the
tuple (m[0], ..., m[n-1]) with False < True.  Clauses go through
make_clause, so duplicate literals merge and a tautology rules out no
assignment.
"""

from __future__ import annotations

from typing import List, Optional

from .model import Formula, SolveResult, Verdict, make_clause

BRUTE_FORCE_VAR_CAP = 26
_BLOCK_BITS = 16


def check_model(formula: Formula, model: List[bool]) -> bool:
    """True iff the total assignment satisfies every clause.

    Raises ValueError when the model length does not match the formula's
    variable count, since a partial assignment cannot be checked, or when a
    value is not a bool.
    """
    return first_falsified_clause(formula, model) is None


def brute_force_solve(formula: Formula) -> SolveResult:
    """Exhaustive solve by enumeration; the ground-truth oracle.

    Returns Sat with the lexicographically first model, or Unsat.  Clauses
    go through make_clause, so a tautology rules out nothing.  Enforces
    BRUTE_FORCE_VAR_CAP since the sweep is exponential.
    """
    n = formula.variable_count
    if n > BRUTE_FORCE_VAR_CAP:
        raise ValueError(
            f"brute force capped at {BRUTE_FORCE_VAR_CAP} variables, got {n}"
        )

    # Assignment index i encodes m[k] in bit (n-1-k), so ascending i is
    # lexicographic order.  Its low bits index into a block int; its high
    # bits are the block's prefix.  cols[b] has bit j set iff bit b of j is,
    # and is cols[b+1] XOR itself shifted down by 2^b.
    low = min(n, _BLOCK_BITS)
    full = (1 << (1 << low)) - 1
    cols = [full] * (low + 1)
    for b in reversed(range(low)):
        cols[b] = cols[b + 1] ^ (cols[b + 1] >> (1 << b))

    # Each clause rules out exactly the assignments where all its literals
    # are false.  Its high literals give one (mask, pattern) test on the
    # prefix; its low literals give the block assignments they satisfy.
    tests = []
    for clause in map(make_clause, formula.clauses):
        if clause is None:
            continue
        mask = pattern = low_sat = 0
        for lit in clause:
            b = n - 1 - (lit >> 1)
            if b < low:
                low_sat |= full ^ cols[b] if lit & 1 else cols[b]
                continue
            bit = 1 << (b - low)
            mask |= bit
            if lit & 1:
                pattern |= bit
        tests.append((mask, pattern, low_sat))

    for prefix in range(1 << (n - low)):
        alive = full
        for mask, pattern, low_sat in tests:
            if (prefix & mask) == pattern:
                alive &= low_sat
                if not alive:
                    break
        if alive:
            i = (prefix << low) | ((alive & -alive).bit_length() - 1)
            model = [bool((i >> (n - 1 - k)) & 1) for k in range(n)]
            return SolveResult(Verdict.SAT, model=model)
    return SolveResult(Verdict.UNSAT)


def first_falsified_clause(formula: Formula, model: List[bool]) -> Optional[int]:
    """Index of the first clause the model falsifies, or None.

    Raises ValueError when the model length does not match the formula's
    variable count, or when a value is neither True nor False (0 and 1
    compare equal to them and pass).
    """
    if len(model) != formula.variable_count:
        raise ValueError(
            f"model has {len(model)} values, formula has "
            f"{formula.variable_count} variables"
        )
    for v, x in enumerate(model):
        if x not in (True, False):
            raise ValueError(f"model value {x!r} of variable {v + 1} is not a bool")
    for i, clause in enumerate(formula.clauses):
        for lit in clause:
            if model[lit >> 1] != lit & 1:
                break
        else:
            return i
    return None
