"""The two text formats: DIMACS CNF input and competition-style results.

Both readers, parse_dimacs and parse_model, take str or bytes and split
it into lines one way: bytes are decoded as UTF-8 (an undecodable byte
becomes U+FFFD), one leading byte-order mark is dropped, and a line ends
only at '\\n', '\\r\\n' or '\\r'.  Other Unicode line breaks ('\\v', '\\f',
'\\x1c'-'\\x1e', '\\x85', U+2028, U+2029) are whitespace inside a line, so
a comment that holds one stays a comment.  A line that is blank or starts
with 'c' (for a model, 'c' or 's') after stripping holds no data.

A CNF header/body clause-count mismatch is a warning, not an error.  Hard
errors (bad header, literal out of range, junk tokens, missing clause
terminator, malformed model) raise DimacsError with a 1-based line number;
parse_dimacs reports the first one in file order.

parse_dimacs reads a clause body one of two ways.  The fast path splits
the lines after the header once and maps the tokens through a table of
the canonical spellings the header allows ('1', '-1', ..., '0'), built
only when the body has at least 2 * nvars tokens, so the table never
outgrows the token list; when every token is found and every clause has
one width with no repeated variable, the clauses are the rows of strided
columns of the literal tuple.  Any other body is read token by token,
int() once per token: duplicate literals merge, a tautology is dropped
with a warning at its terminating 0's line, and errors are met in file
order.  Both range-check each literal once, so the Formula is built
without its constructor's range pass.
"""

from __future__ import annotations

from itertools import combinations
from operator import xor
from typing import Iterator, List, Optional, Tuple, Union

from .model import (
    Formula,
    SolveResult,
    Verdict,
    _collector_paused,
    _trusted_formula,
    lit_from_dimacs,
    lit_to_dimacs,
    make_clause,
)

MAX_VALUE_LINE_CHARS = 4096

# A UTF-8 byte-order mark, dropped from the start of either input format.
_BOM = "\ufeff"

# Stands for a clause-ending 0 in the token stream; literals are >= 0.
_END = -1


class DimacsError(ValueError):
    """Parse failure, carrying the offending 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@_collector_paused
def parse_dimacs(
    text: Union[str, bytes]
) -> Tuple[Formula, List[Tuple[int, str]]]:
    """Parse DIMACS CNF text into a Formula and its (line, message) warnings.

    Comment lines ('c ...') and blank lines may appear anywhere.  Clauses may
    span lines; every clause ends with a 0 token.  Tokens are read as int()
    reads them, so '+1' and '01' are literal 1 and '-0' ends a clause.
    Tautological clauses are dropped with a warning; duplicate literals
    within a clause are merged.  An explicit empty clause is kept (the
    formula is trivially UNSAT).  A leading byte-order mark is dropped.
    The cyclic collector is paused, process-wide, for the duration of the
    call.
    """
    lines = _lines(text)
    last_line = max(len(lines), 1)
    for header_line, line in _data_lines(lines):
        if line[0] != "p":
            raise DimacsError(header_line, "clause data before 'p cnf' header")
        parts = line.split()
        if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
            raise DimacsError(header_line, f"malformed header {line!r}")
        try:
            nvars = int(parts[2])
            declared_clauses = int(parts[3])
        except ValueError:
            raise DimacsError(header_line, f"non-integer header field in {line!r}")
        if nvars < 0 or declared_clauses < 0:
            raise DimacsError(header_line, "header counts must be non-negative")
        break
    else:
        raise DimacsError(last_line, "missing 'p cnf' header")

    # Without a 'c' no body line is a comment; blank lines hold no tokens.
    body = "\n".join(lines[header_line:])
    if "c" in body:
        body = "\n".join(line for _, line in _data_lines(lines, header_line))
    tokens = body.split()
    # Every literal the header allows, in its canonical spelling, unless
    # that would outnumber the tokens: the table never outgrows the body.
    lit_of = {}
    if 2 * nvars <= len(tokens):
        lit_of.update(zip(map(str, range(1, nvars + 1)), range(0, 2 * nvars, 2)))
        lit_of.update(zip(map(str, range(-1, -nvars - 1, -1)), range(1, 2 * nvars, 2)))
        lit_of["0"] = _END
    try:
        # Tuples, so that a slice is already a clause.
        lits = tuple(map(lit_of.__getitem__, tokens))
    except KeyError:
        lits = None  # a spelling outside the table, junk or out of range
    # The token strings are the parse's largest transient, so they go
    # before any clause is built.
    del tokens
    clauses = None if lits is None else _one_width_clauses(lits, lits.count(_END))
    del lits
    warnings: List[Tuple[int, str]] = []
    if clauses is None:
        clauses, warnings = _read_clauses(lines, header_line, nvars)
    # Each clause read is kept or dropped with one warning.
    parsed_clauses = len(clauses) + len(warnings)
    if parsed_clauses != declared_clauses:
        warnings.append((
            last_line,
            f"header declares {declared_clauses} clauses, found {parsed_clauses}",
        ))

    return _trusted_formula(nvars, clauses), warnings


def _one_width_clauses(
    lits: Tuple[int, ...], count: int
) -> Optional[List[Tuple[int, ...]]]:
    """The count clauses that lits terminates, built column by column, or
    None unless every clause has one width and no clause repeats a variable.

    With one width k, lits is count rows of k literals and a terminator, so
    the terminators are exactly every (k+1)-th entry, and the last entry is
    one; the clauses are the rows of the k strided columns.  Two literals
    share a variable exactly when they differ at most in the sign bit, that
    is when their XOR is below 2, so a clause repeats a variable where two
    columns' XOR is below 2 in its row; then parse_dimacs reads the file
    token by token, so that make_clause merges or drops it.
    """
    stride = len(lits) // count if count else 1
    if count * stride != len(lits) or lits[stride - 1 :: stride].count(_END) != count:
        return None
    if stride == 1:
        return [()] * count
    columns = [lits[i::stride] for i in range(stride - 1)]
    if any(min(map(xor, a, b)) < 2 for a, b in combinations(columns, 2)):
        return None
    return list(zip(*columns))


def _read_clauses(
    lines: List[str], header_line: int, nvars: int
) -> Tuple[List[Tuple[int, ...]], List[Tuple[int, str]]]:
    """The clauses of the body after the header on line header_line, read
    token by token with int(), and a warning for each tautology dropped.

    Raises DimacsError at the first bad token in file order, a 'p' that
    starts a line being a duplicate header, or for a missing terminating 0
    once the whole body has been read.
    """
    clauses: List[Tuple[int, ...]] = []
    warnings: List[Tuple[int, str]] = []
    clause: List[int] = []
    for lineno, line in _data_lines(lines, header_line):
        words = line.split()
        for word in words:
            try:
                n = int(word)
            except ValueError:
                if word == words[0] == "p":
                    raise DimacsError(lineno, "duplicate 'p' header") from None
                raise DimacsError(lineno, f"invalid token {word!r}") from None
            if n == 0:
                kept = make_clause(clause)
                if kept is None:
                    warnings.append((lineno, "tautological clause dropped"))
                else:
                    clauses.append(kept)
                clause = []
            elif abs(n) > nvars:
                raise DimacsError(
                    lineno, f"literal {n} exceeds declared variable count {nvars}"
                )
            else:
                clause.append(lit_from_dimacs(n))
    if clause:
        raise DimacsError(len(lines), "clause missing terminating 0 at end of input")
    return clauses, warnings


def _lines(text: Union[str, bytes]) -> List[str]:
    """The lines of either text format, split by the module docstring's rule.

    Not by str's own line splitter: it also ends a line at '\\v', '\\f',
    '\\x1c'-'\\x1e', '\\x85', U+2028 and U+2029, so the tail of a comment
    holding one would be read as clause data.  Kept inside a line, they are
    whitespace to str.split() and str.strip().  Text that ends in a line end
    has no empty last line.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8", errors="replace")
    text = text.removeprefix(_BOM)
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def _data_lines(
    lines: List[str], start: int = 0, skip: str = "c"
) -> Iterator[Tuple[int, str]]:
    """(1-based line number, stripped line) for each line from index start
    on that is not blank and does not start with a character of skip."""
    for lineno, line in enumerate(map(str.strip, lines[start:]), start=start + 1):
        if line and line[0] not in skip:
            yield lineno, line


def parse_dimacs_file(path) -> Tuple[Formula, List[Tuple[int, str]]]:
    with open(path, "rb") as fh:
        return parse_dimacs(fh.read())


def parse_model(text: Union[str, bytes], variable_count: int) -> List[bool]:
    """Read a model as signed literals, either bare or on 'v' lines.

    Comment ('c') and status ('s') lines are skipped, a 0 ends the model,
    and every variable must be assigned exactly once, so the output of
    render_result reads back as its model.  Lines are split as parse_dimacs
    splits them, and a leading byte-order mark is dropped.
    """
    model: List[Optional[bool]] = [None] * variable_count
    done = False
    lines = _lines(text)
    for lineno, line in _data_lines(lines, skip="cs"):
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
            max(len(lines), 1), f"model does not assign variable(s) {missing[:5]}"
        )
    return model


def write_dimacs(formula: Formula, comments: Optional[List[str]] = None) -> str:
    """Render a Formula back to DIMACS text (test and tooling support).

    Raises ValueError for a comment that holds '\\n' or '\\r', which
    would end its line and leave the rest to be read as data.
    """
    comments = comments or []
    for comment in comments:
        if "\n" in comment or "\r" in comment:
            raise ValueError(f"comment {comment!r} holds a line end")
    lines = [f"c {comment}" for comment in comments]
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
