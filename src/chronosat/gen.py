"""Deterministic CNF instance generators for tests and benchmarks."""

from __future__ import annotations

import random
from typing import Optional

from .model import Formula, make_literal


def random_ksat(
    n_vars: int,
    n_clauses: Optional[int] = None,
    ratio: float = 4.26,
    k: int = 3,
    rng: Optional[random.Random] = None,
    seed: Optional[int] = None,
) -> Formula:
    """Uniform random k-SAT: each clause picks k distinct variables and
    independent random signs.  Pass either n_clauses or a clause/variable
    ratio.  Deterministic for a fixed rng/seed.  An impossible shape
    (k < 1, fewer than k variables, a negative clause count, any of those
    three not an int, a ratio that is negative, non-finite or not an int
    or float) is rejected before any draw, so a shared rng is left
    untouched."""
    if type(k) is not int or k < 1:
        raise ValueError(f"need an int k >= 1 literals per clause, got k={k!r}")
    if type(n_vars) is not int or n_vars < k:
        raise ValueError(f"need an int n_vars >= {k} for {k}-SAT, got n_vars={n_vars!r}")
    if rng is None:
        rng = random.Random(seed)
    if n_clauses is None:
        if type(ratio) not in (int, float) or not 0 <= ratio < float("inf"):  # NaN too
            raise ValueError(f"need a finite int or float ratio >= 0, got {ratio!r}")
        n_clauses = round(ratio * n_vars)
    if type(n_clauses) is not int or n_clauses < 0:
        raise ValueError(f"need an int n_clauses >= 0, got {n_clauses!r}")
    clauses = []
    for _ in range(n_clauses):
        vs = rng.sample(range(n_vars), k)
        clauses.append(tuple([make_literal(v, rng.random() < 0.5) for v in vs]))
    return Formula(n_vars, clauses)


def pigeonhole(pigeons: int, holes: int) -> Formula:
    """PHP(pigeons, holes): every pigeon in some hole, no hole shared.

    Variable p*holes + h means pigeon p sits in hole h.  Unsatisfiable
    whenever pigeons > holes.
    """
    if type(pigeons) is not int or pigeons < 1:
        raise ValueError(f"need an int pigeons >= 1, got pigeons={pigeons!r}")
    if type(holes) is not int or holes < 1:
        raise ValueError(f"need an int holes >= 1, got holes={holes!r}")
    clauses = [
        tuple([make_literal(p * holes + h, True) for h in range(holes)])
        for p in range(pigeons)
    ]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append(
                    (
                        make_literal(p1 * holes + h, False),
                        make_literal(p2 * holes + h, False),
                    )
                )
    return Formula(pigeons * holes, clauses)


def deep_conflict(padding: int = 150) -> Formula:
    """Unsatisfiable formula whose first conflict sits above `padding`
    decision levels with an analysis level of 0, forcing a large jump
    distance.  The only constraints are four clauses over the last two
    variables; the padding variables are unconstrained, so a fresh solver
    walks them in index order first, one decision level each."""
    if type(padding) is not int or padding < 0:
        raise ValueError(f"need an int padding >= 0, got padding={padding!r}")
    a = make_literal(padding, True)
    b = make_literal(padding + 1, True)
    clauses = [(a, b), (a, b ^ 1), (a ^ 1, b), (a ^ 1, b ^ 1)]
    return Formula(padding + 2, clauses)
