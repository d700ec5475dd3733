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
terminator, malformed model) raise DimacsError with a 1-based line number.

parse_dimacs reports the first error in file order, as a reader going
token by token would meet it: a junk token or an out-of-range literal wins
over a duplicate 'p' header (a body line whose first token is 'p') on a
later line, nothing after a duplicate header is reported, and of two bad
tokens on one line the earlier wins, whichever kind it is.  A missing
terminating 0 is reported only after the whole body has been read.
Warnings come in file order, each tautology at the line of its
terminating 0, and the clause count mismatch last.

The clause body is tokenized in one pass: the lines after the header are
joined and split once (comment lines are filtered out first, only when the
body holds a 'c' at all), and the token list is mapped to literals through
one table.  The table starts from the header: the canonical spelling of
every literal it allows ('1', '-1', ..., and '0' for the terminator), but
only when the body has at least 2 * nvars tokens, so the table never
outgrows the token list.  A token missing from it (another spelling int()
reads, such as '+1' or '01', junk, or an out-of-range literal) goes through
int() once per distinct token, which extends the table or reports the
error.  So each literal is range-checked there, once, and the Formula is
built without its constructor's range pass.

When every clause has one width k (every (k+1)-th literal is a terminator,
and no others), the clauses are cut out by columns: the k strided slices
of the literal tuple are zipped into rows, and a pairwise XOR of those
columns finds a clause that repeats a variable.  Mixed widths, or any
repeated variable, send the whole file through a clause-by-clause loop,
which merges duplicates and drops tautologies.  Line numbers are worked
out only for a report, as one table of each token's line.
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

    # A second 'p' line stays in the body: its first token is never an int,
    # so it is met in file order like any bad token.  Without a 'c' in the
    # body no line can be a comment, and blank lines hold no tokens.
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
        # Other spellings int() reads ('+1', '01', '-0'), junk and
        # out-of-range literals: int() once per distinct such token.
        bad = {}
        for tok in set(tokens).difference(lit_of):
            try:
                n = int(tok)
            except ValueError:
                bad[tok] = f"invalid token {tok!r}"
                continue
            if n == 0:
                lit_of[tok] = _END
            elif abs(n) > nvars:
                bad[tok] = f"literal {n} exceeds declared variable count {nvars}"
            else:
                lit_of[tok] = 2 * n - 2 if n > 0 else -2 * n - 1
        if bad:
            at = _token_lines(lines, header_line)
            i, tok = next((i, tok) for i, tok in enumerate(tokens) if tok in bad)
            if tok == "p" and (i == 0 or at[i - 1] != at[i]):
                raise DimacsError(at[i], "duplicate 'p' header") from None
            raise DimacsError(at[i], bad[tok]) from None
        lits = tuple(map(lit_of.__getitem__, tokens))
    # The token strings are the parse's largest transient, so they go
    # before any clause is built.
    del tokens
    if lits and lits[-1] != _END:
        raise DimacsError(last_line, "clause missing terminating 0 at end of input")
    parsed_clauses = lits.count(_END)

    clauses = _one_width_clauses(lits, parsed_clauses)
    tautology_ends = []
    if clauses is None:
        # Mixed widths or a repeated variable: clause by clause.
        var_of = {lit: lit >> 1 for lit in lit_of.values()}
        variables = tuple(map(var_of.__getitem__, lits))
        clauses = []
        start = 0
        for _ in range(parsed_clauses):
            end = lits.index(_END, start)
            if len(set(variables[start:end])) == end - start:
                clauses.append(lits[start:end])
            else:
                clause = make_clause(lits[start:end])
                if clause is None:
                    tautology_ends.append(end)
                else:
                    clauses.append(clause)
            start = end + 1

    warnings: List[Tuple[int, str]] = []
    if tautology_ends:
        at = _token_lines(lines, header_line)
        for end in tautology_ends:
            warnings.append((at[end], "tautological clause dropped"))
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
    the terminators are exactly every (k+1)-th entry, and the clauses are
    the rows of the k strided columns.  Two literals share a variable
    exactly when they differ at most in the sign bit, that is when their
    XOR is below 2, so a clause repeats a variable where two columns' XOR
    is below 2 in its row; then parse_dimacs goes clause by clause, so that
    make_clause merges or drops it.
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


def _token_lines(lines: List[str], header_line: int) -> List[int]:
    """The 1-based line number of each clause-data token, in token order,
    for the body that follows the header on line header_line: blank and
    comment lines are skipped as parse_dimacs skips them."""
    at: List[int] = []
    for lineno, line in _data_lines(lines, header_line):
        at += [lineno] * len(line.split())
    return at


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
