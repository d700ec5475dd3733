import random

import pytest
from hypothesis import example, given, settings, strategies as st

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
from chronosat.model import SolveResult, Verdict, lit_to_dimacs


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
    with pytest.raises(DimacsError, match="line 1"):
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


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=3000), st.integers(min_value=0))
@example(0, 0)
@example(2000, 7)  # wraps the value lines past MAX_VALUE_LINE_CHARS
def test_parse_model_reads_back_rendered_result(n, seed):
    rng = random.Random(seed)
    r = SolveResult(Verdict.SAT, model=[rng.random() < 0.5 for _ in range(n)])
    assert parse_model(render_result(r), n) == r.model
