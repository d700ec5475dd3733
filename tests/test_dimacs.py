import random

import pytest
from hypothesis import given, settings, strategies as st

from chronosat.dimacs import (
    MAX_VALUE_LINE_CHARS,
    DimacsError,
    parse_dimacs,
    parse_dimacs_file,
    render_result,
    write_dimacs,
)
from chronosat.gen import random_ksat
from chronosat.model import SolveResult, Verdict, lit_to_dimacs


def clause_ints(formula):
    return [[lit_to_dimacs(l) for l in c] for c in formula.clauses]


def test_parse_basic():
    f, d = parse_dimacs("p cnf 2 2\n1 -2 0\n2 1 0\n")
    assert f.variable_count == 2
    assert f.clauses == [(0, 3), (2, 0)]
    assert clause_ints(f) == [[1, -2], [2, 1]]
    assert d.warnings == []
    assert d.declared_clause_count == 2
    assert d.parsed_clause_count == 2


def test_parse_accepts_bytes_and_crlf():
    f, _ = parse_dimacs(b"c hi\r\np cnf 2 1\r\n1 2 0\r\n")
    assert clause_ints(f) == [[1, 2]]


def test_parse_comments_and_blank_lines_anywhere():
    text = "c top\n\np cnf 3 2\nc middle\n1 2 0\n\nc again\n-3 0\n"
    f, d = parse_dimacs(text)
    assert clause_ints(f) == [[1, 2], [-3]]
    assert d.warnings == []


def test_parse_clause_spanning_lines():
    f, _ = parse_dimacs("p cnf 3 1\n1\n-2\n3 0\n")
    assert clause_ints(f) == [[1, -2, 3]]


def test_parse_count_mismatch_warns_by_default():
    f, d = parse_dimacs("p cnf 2 3\n1 0\n")
    assert f.clause_count == 1
    assert len(d.warnings) == 1
    assert "declares 3" in d.warnings[0][1]


def test_parse_count_mismatch_is_error_in_strict_mode():
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf 2 3\n1 0\n", strict=True)


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
    f, d = parse_dimacs("p cnf 2 2\n1 -1 0\n2 0\n")
    assert clause_ints(f) == [[2]]
    assert any("tautological" in msg for _, msg in d.warnings)
    # count warning compares against raw parsed clauses, so 2 == 2 here
    assert d.parsed_clause_count == 2


def test_parse_duplicate_literals_merged():
    f, _ = parse_dimacs("p cnf 2 1\n1 1 -2 0\n")
    assert clause_ints(f) == [[1, -2]]


def test_parse_empty_clause_is_kept():
    f, _ = parse_dimacs("p cnf 2 1\n0\n")
    assert f.clause_count == 1
    assert f.clauses[0] == ()


def test_parse_zero_vars_zero_clauses():
    f, d = parse_dimacs("p cnf 0 0\n")
    assert f.variable_count == 0
    assert f.clause_count == 0
    assert d.warnings == []


def test_parse_file(tmp_path):
    p = tmp_path / "x.cnf"
    p.write_text("p cnf 1 1\n-1 0\n")
    f, _ = parse_dimacs_file(p)
    assert clause_ints(f) == [[-1]]


def test_write_dimacs_round_trip_small():
    f = random_ksat(6, seed=9)
    text = write_dimacs(f, comments=["generated"])
    g, d = parse_dimacs(text)
    assert g.variable_count == f.variable_count
    assert clause_ints(g) == clause_ints(f)
    assert d.warnings == []


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
