import random
import re
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from chronosat import dimacs
from chronosat.dimacs import (
    MAX_VALUE_LINE_CHARS,
    DimacsError,
    parse_dimacs,
    parse_dimacs_file,
    parse_model,
    render_result,
    write_dimacs,
)
from chronosat.gen import random_ksat
from chronosat.model import (
    Formula,
    SolveResult,
    Verdict,
    lit_from_dimacs,
    lit_to_dimacs,
    make_clause,
)


def clause_ints(formula):
    return [[lit_to_dimacs(l) for l in c] for c in formula.clauses]


def test_parse_basic():
    f, warnings = parse_dimacs("p cnf 2 2\n1 -2 0\n2 1 0\n")
    assert f.variable_count == 2
    assert f.clauses == [(0, 3), (2, 0)]
    assert clause_ints(f) == [[1, -2], [2, 1]]
    assert warnings == []


def test_parse_encodes_the_extreme_literals():
    f, _ = parse_dimacs("p cnf 5 2\n1 -5 0\n-1 5 0\n")
    assert f.clauses == [(0, 9), (1, 8)]


def test_parse_accepts_bytes_and_crlf():
    f, _ = parse_dimacs(b"c hi\r\np cnf 2 1\r\n1 2 0\r\n")
    assert clause_ints(f) == [[1, 2]]


def test_parse_comments_and_blank_lines_anywhere():
    text = "c top\n\np cnf 3 2\nc middle\n1 2 0\n\nc again\n-3 0\n"
    f, warnings = parse_dimacs(text)
    assert clause_ints(f) == [[1, 2], [-3]]
    assert warnings == []


def test_parse_clause_spanning_lines():
    f, _ = parse_dimacs("p cnf 3 1\n1\n-2\n3 0\n")
    assert clause_ints(f) == [[1, -2, 3]]


def test_parse_count_mismatch_warns_by_default():
    f, warnings = parse_dimacs("p cnf 2 3\n1 0\n")
    assert f.clause_count == 1
    assert warnings == [(2, "header declares 3 clauses, found 1")]


def test_parse_missing_header():
    with pytest.raises(DimacsError, match="missing 'p cnf' header"):
        parse_dimacs("c only a comment\n")


def test_parse_clause_before_header():
    with pytest.raises(DimacsError, match="line 1: clause data before 'p cnf' header"):
        parse_dimacs("1 2 0\np cnf 2 1\n")


def test_parse_duplicate_header():
    with pytest.raises(DimacsError, match="duplicate"):
        parse_dimacs("p cnf 2 1\np cnf 2 1\n1 0\n")


def test_parse_malformed_header():
    with pytest.raises(DimacsError, match="malformed header"):
        parse_dimacs("p sat 2 1\n1 0\n")


@pytest.mark.parametrize(
    "header, match",
    [
        ("p cnf x 2", "non-integer header field"),
        ("p cnf -1 2", "header counts must be non-negative"),
    ],
)
def test_parse_header_field_errors_name_line_1(header, match):
    with pytest.raises(DimacsError, match=match) as err:
        parse_dimacs(header + "\n1 0\n")
    assert err.value.line == 1


def test_parse_bad_token_reports_line_number():
    with pytest.raises(DimacsError, match="line 3: invalid token 'two'"):
        parse_dimacs("c x\np cnf 2 1\n1 two 0\n")


def test_parse_literal_out_of_range():
    with pytest.raises(DimacsError, match="literal 7 exceeds"):
        parse_dimacs("p cnf 2 1\n1 7 0\n")


def test_parse_missing_terminating_zero():
    with pytest.raises(DimacsError, match="missing terminating 0"):
        parse_dimacs("p cnf 2 1\n1 2\n")


def test_parse_tautology_dropped_with_warning():
    f, warnings = parse_dimacs("p cnf 2 2\n1 -1 0\n2 0\n")
    assert clause_ints(f) == [[2]]
    # the count check compares against raw parsed clauses, so 2 == 2 here
    assert warnings == [(2, "tautological clause dropped")]


def test_parse_junk_token_before_duplicate_header_wins():
    with pytest.raises(DimacsError, match="line 2: invalid token 'x'"):
        parse_dimacs("p cnf 2 1\n1 x 0\np cnf 2 1\n")


def test_parse_duplicate_header_wins_over_a_later_junk_token():
    # Nothing after a duplicate header is read.
    with pytest.raises(DimacsError, match="line 3: duplicate 'p' header"):
        parse_dimacs("p cnf 2 1\n1 0\np cnf 2 1\nx 0\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("p cnf 2 1\nprobably 0\n", "line 2: invalid token 'probably'"),
        ("p cnf 2 1\n1 0\npcnf 2 1\n", "line 3: invalid token 'pcnf'"),
        ("p cnf 2 1\n1 x 0\npx 0\n", "line 2: invalid token 'x'"),
        ("p cnf 2 1\n1 p 0\n", "line 2: invalid token 'p'"),
        # A 'p' that starts a line is a header even inside a clause.
        ("p cnf 2 1\n1 2\np 0\n", "line 3: duplicate 'p' header"),
    ],
)
def test_parse_a_body_word_starting_with_p_is_a_bad_token(text, message):
    # Only a line whose first token is exactly 'p' is a duplicate header.
    with pytest.raises(DimacsError, match=f"^{message}$"):
        parse_dimacs(text)


def test_parse_tautology_spanning_a_comment_and_a_blank_line():
    f, warnings = parse_dimacs("p cnf 2 1\n1\nc mid\n\n-1 0\n")
    assert f.clauses == []
    assert warnings == [(5, "tautological clause dropped")]


def test_parse_range_error_before_junk_token_on_one_line_wins():
    with pytest.raises(DimacsError, match="line 2: literal 7 exceeds"):
        parse_dimacs("p cnf 2 1\n1 7 x 0\n")


def test_parse_tautology_warning_names_line_of_terminating_zero():
    f, warnings = parse_dimacs("p cnf 2 2\n1\nc note\n-1\n0\n2 0\n")
    assert clause_ints(f) == [[2]]
    assert warnings == [(5, "tautological clause dropped")]


def test_parse_tokens_read_as_int_reads_them():
    # '+1' and '01' are both variable 1, and '-0' is a terminator.
    f, warnings = parse_dimacs("p cnf 2 2\n+1 01 -02 -0\n+02 0\n")
    assert clause_ints(f) == [[1, -2], [2]]
    assert warnings == []


def test_parse_literal_table_is_bounded_by_the_tokens():
    # A literal table sized from the header alone would hold 2 * 10**8
    # entries for this three-token body.
    tracemalloc.start()
    try:
        f, warnings = parse_dimacs("p cnf 100000000 1\n1 -100000000 0\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert f.clauses == [(0, 199999999)]
    assert warnings == []
    assert peak < 1 << 20


# Ten variables and 21 tokens before the last line: at least 2 * nvars
# tokens, so the literal table starts from the header's canonical spellings.
_CANONICAL = "p cnf 10 8\n" + "1 -10 0\n" * 7


@pytest.mark.parametrize(
    "last, clause",
    [
        ("+1 -10 0", [1, -10]),
        ("01 -010 0", [1, -10]),
        ("1 -10 -0", [1, -10]),
        ("1_0 -1 0", [10, -1]),
        ("10 1 0", [10, 1]),
    ],
    ids=["plus", "leading-zero", "minus-zero", "underscore", "canonical"],
)
def test_parse_other_spellings_beside_the_literal_table(last, clause):
    f, warnings = parse_dimacs(_CANONICAL + last + "\n")
    assert clause_ints(f) == [[1, -10]] * 7 + [clause]
    assert warnings == []


@pytest.mark.parametrize(
    "last, message",
    [
        ("+11 0", "literal 11 exceeds declared variable count 10"),
        ("-1_1 0", "literal -11 exceeds declared variable count 10"),
        ("1__0 0", "invalid token '1__0'"),
    ],
    ids=["plus", "underscore", "junk"],
)
def test_parse_bad_tokens_beside_the_literal_table(last, message):
    with pytest.raises(DimacsError, match=f"^line 9: {message}$"):
        parse_dimacs(_CANONICAL + last + "\n")


def test_parse_comment_after_header_beside_the_literal_table():
    f, warnings = parse_dimacs(_CANONICAL + "c one more\n2 0\n")
    assert clause_ints(f) == [[1, -10]] * 7 + [[2]]
    assert warnings == []


def test_parse_junk_token_holding_a_c_names_its_line():
    with pytest.raises(DimacsError, match="^line 9: invalid token '2c'$"):
        parse_dimacs(_CANONICAL + "1 2c 0\n")


@pytest.mark.parametrize("encode", [False, True], ids=["str", "bytes"])
def test_parse_drops_a_leading_byte_order_mark(encode):
    text = "\ufeffp cnf 1 1\n1 x 0\n"
    with pytest.raises(DimacsError, match="^line 2: invalid token 'x'$"):
        parse_dimacs(text.encode() if encode else text)
    text = text.replace(" x", "")
    f, warnings = parse_dimacs(text.encode() if encode else text)
    assert clause_ints(f) == [[1]]
    assert warnings == []


def test_parse_a_line_break_inside_a_comment_adds_no_clause():
    f, warnings = parse_dimacs("p cnf 1 2\nc note\f-1 0\n1 0\n")
    assert f.clauses == [(0,)]
    assert warnings == [(3, "header declares 2 clauses, found 1")]


def test_parse_count_mismatch_warning_follows_tautology_warnings():
    _, warnings = parse_dimacs("p cnf 2 4\n1 -1 0\n2 0\n-2 2 0\n\n")
    assert warnings == [
        (2, "tautological clause dropped"),
        (4, "tautological clause dropped"),
        (5, "header declares 4 clauses, found 3"),
    ]


def test_parse_duplicate_literals_merged():
    f, _ = parse_dimacs("p cnf 2 1\n1 1 -2 0\n")
    assert clause_ints(f) == [[1, -2]]


def test_parse_empty_clause_is_kept():
    f, _ = parse_dimacs("p cnf 2 1\n0\n")
    assert f.clause_count == 1
    assert f.clauses[0] == ()


def test_parse_zero_vars_zero_clauses():
    f, warnings = parse_dimacs("p cnf 0 0\n")
    assert f.variable_count == 0
    assert f.clause_count == 0
    assert warnings == []


@pytest.mark.parametrize(
    "text, clauses, warnings",
    [
        # Width 0: a file of empty clauses.
        ("p cnf 2 3\n0\n0\n0\n", [[], [], []], []),
        # Width 1: a file of units.
        ("p cnf 3 3\n1 0\n-2 0\n3 0\n", [[1], [-2], [3]], []),
        # One width, but the last clause repeats a variable.
        (
            "p cnf 3 3\n1 -2 3 0\n-1 2 -3 0\n2 -3 2 0\n",
            [[1, -2, 3], [-1, 2, -3], [2, -3]],
            [],
        ),
        # One width, with a tautology in the middle.
        (
            "p cnf 3 3\n1 2 3 0\n1 -1 2 0\n-1 -2 -3 0\n",
            [[1, 2, 3], [-1, -2, -3]],
            [(3, "tautological clause dropped")],
        ),
        # Widths 2, 0, 4: 3 clauses in 9 tokens, as three clauses of width 2
        # would be, but the terminators are not every third token.
        ("p cnf 4 3\n1 2 0\n0\n1 -2 3 -4 0\n", [[1, 2], [], [1, -2, 3, -4]], []),
    ],
    ids=["width-0", "width-1", "last-repeats", "tautology", "widths-2-0-4"],
)
def test_parse_one_width_edge_cases(text, clauses, warnings):
    f, found = parse_dimacs(text)
    assert clause_ints(f) == clauses
    assert found == warnings


# The last eight comments each hold a character that str.splitlines ends a
# line at and a DIMACS line end is not: split there, "-1 0" is a clause.
_FILLER = st.sampled_from(
    ["", "   ", "c", "c 1 -1 0", "  c p cnf 9 9", "c 0"]
    + [f"c a{ch}-1 0" for ch in "\v\f\x1c\x1d\x1e\x85\u2028\u2029"]
)


def _spellings(n):
    """Tokens that int() reads as n."""
    if n == 0:
        return ["0", "-0", "+0", "00"]
    if n > 0:
        return [str(n), f"+{n}", f"0{n}"]
    return [str(n), f"-0{-n}"]


@st.composite
def dimacs_texts(draw):
    """DIMACS text with the clauses, warnings and variable count that
    parsing it should give.

    Clauses of width 0 to 5 over at most 6 variables, in files of one width
    or of mixed widths.  Lines break anywhere between tokens and end in
    '\\n', '\\r\\n' or '\\r', comment and blank lines fall between and inside
    clauses, and literals come in every spelling int() reads, or in the
    canonical spelling only, so that a one-width file can take the fast
    path."""
    spellings = _spellings if draw(st.booleans()) else lambda n: [str(n)]
    nvars = draw(st.integers(1, 6))
    literal = st.integers(-nvars, nvars).filter(bool)
    if draw(st.booleans()):
        widths = [draw(st.integers(0, 5))] * draw(st.integers(0, 8))
    else:
        widths = draw(st.lists(st.integers(0, 5), max_size=8))
    clauses = [draw(st.lists(literal, min_size=w, max_size=w)) for w in widths]
    declared = draw(st.integers(max(len(clauses) - 1, 0), len(clauses) + 1))

    lines = draw(st.lists(_FILLER, max_size=2))
    lines.append(f"p cnf {nvars} {declared}")
    expected, warnings = [], []
    current = []
    for clause in clauses:
        for n in clause + [0]:
            if current and draw(st.booleans()):
                lines.append(" ".join(current))
                lines.extend(draw(st.lists(_FILLER, max_size=2)))
                current = []
            current.append(draw(st.sampled_from(spellings(n))))
        merged = make_clause([lit_from_dimacs(n) for n in clause])
        if merged is None:
            # The terminating 0 sits on the line current will become.
            warnings.append((len(lines) + 1, "tautological clause dropped"))
        else:
            expected.append(merged)
    if current:
        lines.append(" ".join(current))
    lines.extend(draw(st.lists(_FILLER, max_size=2)))
    if declared != len(clauses):
        warnings.append(
            (len(lines), f"header declares {declared} clauses, found {len(clauses)}")
        )
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(lines) + newline, nvars, expected, warnings


@settings(deadline=None, max_examples=300)
@given(dimacs_texts())
def test_parse_generated_text(case):
    text, nvars, clauses, warnings = case
    f, found = parse_dimacs(text)
    assert f.variable_count == nvars
    assert f.clauses == clauses
    assert found == warnings
    # The reader skips Formula's range pass; the pass accepts what it read.
    assert Formula(f.variable_count, f.clauses) == f
    # Whichever path it took, the token reader reads the same clauses and
    # tautology warnings.
    lines = dimacs._lines(text)
    header_line, _ = next(dimacs._data_lines(lines))
    read, tautologies = dimacs._read_clauses(lines, header_line, nvars)
    assert read == f.clauses
    assert tautologies == [w for w in found if w[1] == "tautological clause dropped"]


def test_every_pack50_file_takes_the_fast_path(gc_probe, pack_dir):
    token_reader = gc_probe(dimacs, "_read_clauses")
    paths = sorted(Path(pack_dir).glob("*.cnf"))
    assert len(paths) == 200
    for path in paths:
        f, warnings = parse_dimacs_file(path)
        assert f.clause_count > 0 and warnings == []
    assert token_reader == []


def _parse_peak(text):
    tracemalloc.start()
    try:
        parsed = parse_dimacs(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return parsed, peak


def test_a_respelled_literal_reads_the_same_in_no_more_memory(gc_probe):
    token_reader = gc_probe(dimacs, "_read_clauses")
    text = write_dimacs(random_ksat(2500, ratio=4.26, seed=3))
    # The first clause line that starts with a positive literal.
    respelled = re.sub(r"(?m)^([1-9])", r"+\1", text, count=1)
    assert respelled != text
    canonical, canonical_peak = _parse_peak(text)
    assert token_reader == []
    parsed, peak = _parse_peak(respelled)
    assert token_reader == [False]
    assert parsed == canonical
    assert peak <= canonical_peak


def test_parse_file(tmp_path):
    p = tmp_path / "x.cnf"
    p.write_text("p cnf 1 1\n-1 0\n")
    f, _ = parse_dimacs_file(p)
    assert clause_ints(f) == [[-1]]


def test_write_dimacs_round_trip_small():
    f = random_ksat(6, seed=9)
    text = write_dimacs(f, comments=["generated"])
    g, warnings = parse_dimacs(text)
    assert g.variable_count == f.variable_count
    assert clause_ints(g) == clause_ints(f)
    assert warnings == []


@pytest.mark.parametrize("comment", ["x\n-1 0", "x\r1 0", "x\r\n1 0"], ids=["lf", "cr", "crlf"])
def test_write_dimacs_rejects_a_comment_that_ends_its_line(comment):
    with pytest.raises(ValueError, match=f"^comment {re.escape(repr(comment))} holds a line end$"):
        write_dimacs(Formula(1, [(0,)]), comments=["ok", comment])


def test_write_dimacs_keeps_a_form_feed_inside_a_comment():
    g, warnings = parse_dimacs(write_dimacs(Formula(1, [(0,)]), comments=["note\f-1 0"]))
    assert (g.variable_count, g.clauses) == (1, [(0,)])
    assert warnings == []


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_write_parse_round_trip_random(seed):
    rng = random.Random(seed)
    f = random_ksat(rng.randint(3, 12), n_clauses=rng.randint(0, 30), rng=rng)
    g, _ = parse_dimacs(write_dimacs(f))
    assert g.variable_count == f.variable_count
    assert clause_ints(g) == clause_ints(f)


def test_render_sat_result():
    r = SolveResult(Verdict.SAT, model=[True, False])
    assert render_result(r) == "s SATISFIABLE\nv 1 -2 0\n"


def test_render_unsat_and_unknown():
    assert render_result(SolveResult(Verdict.UNSAT)) == "s UNSATISFIABLE\n"
    assert render_result(SolveResult(Verdict.UNKNOWN)) == "s UNKNOWN\n"


def test_render_sat_zero_vars():
    assert render_result(SolveResult(Verdict.SAT, model=[])) == "s SATISFIABLE\nv 0\n"


def test_render_wraps_value_lines():
    n = 2000
    model = [v % 2 == 0 for v in range(n)]
    out = render_result(SolveResult(Verdict.SAT, model=model))
    lines = out.strip().split("\n")
    assert lines[0] == "s SATISFIABLE"
    v_lines = lines[1:]
    assert len(v_lines) > 1
    tokens = []
    for line in v_lines:
        assert len(line) <= MAX_VALUE_LINE_CHARS
        parts = line.split()
        assert parts[0] == "v"
        tokens.extend(parts[1:])
    assert tokens[-1] == "0"
    ints = [int(t) for t in tokens[:-1]]
    assert ints == [(v + 1) if v % 2 == 0 else -(v + 1) for v in range(n)]


@pytest.mark.parametrize(
    "text, match",
    [
        ("c m\nv 1\nv 0\n", "line 3: model does not assign variable"),
        ("v 1 -2\nv 3 0\n", "line 2: literal 3 exceeds variable count 2"),
        ("1\n1 -2 0\n", "line 2: variable 1 assigned twice"),
        ("s SATISFIABLE\nv 1 x 0\n", "line 2: invalid literal 'x'"),
        ("v 1 -2 0\nv 5\n", "line 2: literals after the terminating 0"),
    ],
    ids=["missing-var", "over-count", "duplicate", "junk-token", "after-zero"],
)
def test_parse_model_rejection_names_its_line(text, match):
    with pytest.raises(DimacsError, match=match):
        parse_model(text, 2)


def test_parse_model_drops_a_leading_byte_order_mark():
    assert parse_model("\ufeffv 1 -2 0\n", 2) == [True, False]
    with pytest.raises(DimacsError, match="^line 2: invalid literal 'x'$"):
        parse_model("\ufeffv 1\nv x 0\n", 2)


@pytest.mark.parametrize("encode", [False, True], ids=["str", "bytes"])
def test_parse_model_splits_lines_as_parse_dimacs_does(encode):
    text = "c note\v x\rv 1 0\r\n"
    assert parse_model(text.encode() if encode else text, 1) == [True]
    with pytest.raises(DimacsError, match="^line 3: model does not assign"):
        parse_model("v 1\r\nc 2\u2028-2 0\n\n", 2)


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=3000), st.integers(min_value=0))
@example(0, 0)
@example(2000, 7)  # wraps the value lines past MAX_VALUE_LINE_CHARS
def test_parse_model_reads_back_rendered_result(n, seed):
    rng = random.Random(seed)
    r = SolveResult(Verdict.SAT, model=[rng.random() < 0.5 for _ in range(n)])
    assert parse_model(render_result(r), n) == r.model
