"""The two text formats: DIMACS CNF input and competition-style results.

A CNF header/body clause-count mismatch is a warning, not an error.  Hard
errors (bad header, literal out of range, junk tokens, missing clause
terminator, malformed model) raise DimacsError with a 1-based line number.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from .model import (
    Formula,
    SolveResult,
    Verdict,
    lit_from_dimacs,
    lit_to_dimacs,
    make_clause,
)

MAX_VALUE_LINE_CHARS = 4096


class DimacsError(ValueError):
    """Parse failure, carrying the offending 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def parse_dimacs(
    text: Union[str, bytes]
) -> Tuple[Formula, List[Tuple[int, str]]]:
    """Parse DIMACS CNF text into a Formula and its (line, message) warnings.

    Comment lines ('c ...') and blank lines may appear anywhere.  Clauses may
    span lines; every clause ends with a 0 token.  Tautological clauses are
    dropped with a warning; duplicate literals within a clause are merged.
    An explicit empty clause is kept (the formula is trivially UNSAT).
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8", errors="replace")

    warnings: List[Tuple[int, str]] = []
    nvars = -1
    declared_clauses = parsed_clauses = 0
    clauses = []
    pending: List[int] = []
    lineno = 0

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if nvars >= 0:
                raise DimacsError(lineno, "duplicate 'p' header")
            parts = line.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise DimacsError(lineno, f"malformed header {line!r}")
            try:
                nvars = int(parts[2])
                declared_clauses = int(parts[3])
            except ValueError:
                raise DimacsError(lineno, f"non-integer header field in {line!r}")
            if nvars < 0 or declared_clauses < 0:
                raise DimacsError(lineno, "header counts must be non-negative")
            continue
        if nvars < 0:
            raise DimacsError(lineno, "clause data before 'p cnf' header")
        for tok in line.split():
            try:
                n = int(tok)
            except ValueError:
                raise DimacsError(lineno, f"invalid token {tok!r}")
            if n == 0:
                parsed_clauses += 1
                clause = make_clause(pending)
                if clause is None:
                    warnings.append((lineno, "tautological clause dropped"))
                else:
                    clauses.append(clause)
                pending = []
                continue
            if abs(n) > nvars:
                raise DimacsError(
                    lineno, f"literal {n} exceeds declared variable count {nvars}"
                )
            pending.append(lit_from_dimacs(n))

    last_line = max(lineno, 1)
    if nvars < 0:
        raise DimacsError(last_line, "missing 'p cnf' header")
    if pending:
        raise DimacsError(last_line, "clause missing terminating 0 at end of input")
    if parsed_clauses != declared_clauses:
        warnings.append((
            last_line,
            f"header declares {declared_clauses} clauses, found {parsed_clauses}",
        ))

    return Formula(nvars, clauses), warnings


def parse_dimacs_file(path) -> Tuple[Formula, List[Tuple[int, str]]]:
    with open(path, "rb") as fh:
        return parse_dimacs(fh.read())


def parse_model(text: str, variable_count: int) -> List[bool]:
    """Read a model as signed literals, either bare or on 'v' lines.

    Comment ('c') and status ('s') lines are skipped, a 0 ends the model,
    and every variable must be assigned exactly once, so the output of
    render_result reads back as its model.
    """
    model: List[Optional[bool]] = [None] * variable_count
    done = False
    lineno = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] in "cs":
            continue
        tokens = line.split()
        if tokens[0] == "v":
            del tokens[0]
        for tok in tokens:
            if done:
                raise DimacsError(lineno, "literals after the terminating 0")
            try:
                n = int(tok)
            except ValueError:
                raise DimacsError(lineno, f"invalid literal {tok!r}")
            if n == 0:
                done = True
                continue
            if abs(n) > variable_count:
                raise DimacsError(
                    lineno, f"literal {n} exceeds variable count {variable_count}"
                )
            if model[abs(n) - 1] is not None:
                raise DimacsError(lineno, f"variable {abs(n)} assigned twice")
            model[abs(n) - 1] = n > 0
    missing = [v + 1 for v, value in enumerate(model) if value is None]
    if missing:
        raise DimacsError(
            max(lineno, 1), f"model does not assign variable(s) {missing[:5]}"
        )
    return model


def write_dimacs(formula: Formula, comments: Optional[List[str]] = None) -> str:
    """Render a Formula back to DIMACS text (test and tooling support)."""
    lines = []
    for comment in comments or []:
        lines.append(f"c {comment}")
    lines.append(f"p cnf {formula.variable_count} {formula.clause_count}")
    for c in formula.clauses:
        lines.append(" ".join(str(lit_to_dimacs(l)) for l in c) + " 0")
    return "\n".join(lines) + "\n"


def render_result(result: SolveResult) -> str:
    """Render a solve result in competition output style.

    One 's' status line; for SAT, 'v' lines listing the model as signed
    ints terminated by 0, each line kept at or under MAX_VALUE_LINE_CHARS.
    """
    if result.verdict is Verdict.SAT:
        status = "s SATISFIABLE"
    elif result.verdict is Verdict.UNSAT:
        status = "s UNSATISFIABLE"
    else:
        status = "s UNKNOWN"
    lines = [status]
    if result.verdict is Verdict.SAT:
        tokens = [
            str(v + 1) if val else str(-(v + 1))
            for v, val in enumerate(result.model)
        ]
        tokens.append("0")
        current = "v"
        for tok in tokens:
            if len(current) + 1 + len(tok) > MAX_VALUE_LINE_CHARS:
                lines.append(current)
                current = "v"
            current += " " + tok
        lines.append(current)
    return "\n".join(lines) + "\n"
