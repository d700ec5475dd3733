import gc
import re

import pytest
from hypothesis import given, strategies as st

from chronosat import dimacs, engine
from chronosat.dimacs import DimacsError, parse_dimacs
from chronosat.model import (
    Formula,
    PhaseHeuristic,
    SolveResult,
    SolverConfig,
    SolverStats,
    Verdict,
    lit_from_dimacs,
    lit_to_dimacs,
    make_clause,
    make_literal,
)


def test_literal_encoding_examples():
    assert make_literal(0, True) == 0
    assert make_literal(0, False) == 1
    assert make_literal(5, False) == 11
    assert make_literal(5, True) == 10


def test_negate_flips_polarity_only():
    l = make_literal(3, True)
    assert l ^ 1 == make_literal(3, False)
    assert (l ^ 1) >> 1 == 3
    assert (l ^ 1) ^ 1 == l


@given(st.integers(min_value=0, max_value=10**6), st.booleans())
def test_literal_encoding_round_trip(var, positive):
    l = make_literal(var, positive)
    assert l >> 1 == var
    assert (l & 1 == 0) is positive
    assert l ^ 1 == make_literal(var, not positive)


@given(st.integers(min_value=-(10**6), max_value=10**6).filter(lambda n: n != 0))
def test_dimacs_literal_round_trip(n):
    assert lit_to_dimacs(lit_from_dimacs(n)) == n


def test_dimacs_literal_zero_rejected():
    with pytest.raises(ValueError):
        lit_from_dimacs(0)


def test_make_clause_merges_duplicates():
    x = make_literal(0, True)
    y = make_literal(1, False)
    assert make_clause([x, x, y]) == (x, y)


def test_make_clause_detects_tautology():
    x = make_literal(0, True)
    y = make_literal(1, True)
    assert make_clause([x, x ^ 1, y]) is None


def test_make_clause_keeps_empty_clause():
    assert make_clause([]) == ()


def test_make_clause_preserves_first_occurrence_order():
    lits = [make_literal(2, False), make_literal(0, True), make_literal(1, True)]
    assert make_clause(lits + lits) == tuple(lits)


def test_formula_rejects_out_of_range_literal():
    with pytest.raises(ValueError):
        Formula(1, [(make_literal(1, True),)])


def test_formula_rejects_negative_literal():
    with pytest.raises(ValueError, match="out of range for 2 variables"):
        Formula(2, [(0, 3), (2, -1)])


def test_formula_names_a_negative_literal_by_its_encoded_value():
    # A negative encoded literal has no DIMACS spelling; lit_to_dimacs would
    # call -3 "1" and -1 "0".
    for n, clauses, name in [
        (3, [(0, -3)], "encoded literal -3"),
        (2, [(0, 3), (2, -1)], "encoded literal -1"),
        (1, [(0, 3)], "literal -2"),
    ]:
        with pytest.raises(ValueError, match=f"^{name} out of range for {n} variables$"):
            Formula(n, clauses)


@pytest.mark.parametrize("lit", [1.5, True, "0"], ids=["float", "bool", "str"])
def test_formula_rejects_a_literal_that_is_not_an_int(lit):
    with pytest.raises(ValueError, match=f"^literal {re.escape(repr(lit))} is not an int$"):
        Formula(3, [(0, 2), (4, lit)])


def test_negative_variable_index_rejected():
    with pytest.raises(ValueError):
        make_literal(-1, True)
    with pytest.raises(ValueError):
        Formula(-1, [])


@pytest.mark.parametrize("count", [2.5, float("nan"), "3", True])
def test_formula_rejects_a_variable_count_that_is_not_an_int(count):
    with pytest.raises(ValueError, match=f"^variable_count must be an int >= 0, got {count!r}$"):
        Formula(count, [])


def test_formula_counts():
    f = Formula(2, [make_clause([0]), make_clause([2, 1])])
    assert f.variable_count == 2
    assert f.clause_count == 2


def test_config_defaults_follow_winning_setup():
    cfg = SolverConfig()
    assert cfg.cb_threshold_t == 100
    assert cfg.cb_min_conflicts_c == 4000
    assert cfg.ncb_phase_heuristic is PhaseHeuristic.SAVED
    assert cfg.cb_phase_heuristic is PhaseHeuristic.LSIDS
    assert cfg.dps_decay == 0.7
    assert engine.VAR_DECAY == 0.95


def test_config_accepts_zero_thresholds():
    cfg = SolverConfig(cb_threshold_t=0, cb_min_conflicts_c=0)
    assert cfg.cb_threshold_t == 0
    assert cfg.cb_min_conflicts_c == 0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"cb_threshold_t": -1},
        {"cb_min_conflicts_c": -5},
        {"dps_decay": 0.0},
        {"dps_decay": 1.0},
        {"luby_base": 0},
        {"time_limit_seconds": 0.0},
        {"clause_db_init_limit": 0},
        # NaN compares false with everything, so an unchecked NaN limit would
        # never trip the deadline and the solve would run unbounded.
        {"time_limit_seconds": float("nan")},
        {"time_limit_seconds": float("inf")},
        # random.Random(None) seeds from the OS, so seeded runs would differ.
        {"random_seed": None},
        # NaN fails every comparison: a NaN T never goes chronological, a
        # NaN luby_base never restarts, a NaN limit never reduces the DB.
        *(
            {name: bad}
            for name in (
                "cb_threshold_t",
                "cb_min_conflicts_c",
                "luby_base",
                "clause_db_init_limit",
                "random_seed",
            )
            for bad in (float("nan"), float("inf"), 2.5)
        ),
        # A bool is an int to isinstance, and True a 1 s limit to a range test.
        {"cb_threshold_t": True},
        {"cb_min_conflicts_c": False},
        {"luby_base": True},
        {"clause_db_init_limit": True},
        {"random_seed": False},
        {"time_limit_seconds": True},
    ],
)
def test_config_validation_errors(kwargs):
    (name,) = kwargs
    with pytest.raises(ValueError, match=name):
        SolverConfig(**kwargs)


def test_config_coerces_enum_strings():
    cfg = SolverConfig(ncb_phase_heuristic="dps", cb_phase_heuristic="false")
    assert cfg.ncb_phase_heuristic is PhaseHeuristic.DPS
    assert cfg.cb_phase_heuristic is PhaseHeuristic.ALWAYS_FALSE


def test_stats_counter_items_order():
    names = [name for name, _ in SolverStats().counter_items()]
    assert names == [
        "conflicts",
        "decisions",
        "propagations",
        "restarts",
        "cb_backtracks",
        "ncb_backtracks",
        "lsids_decisions",
        "lsids_differs_saved",
    ]


def test_solve_result_requires_model_only_for_sat():
    with pytest.raises(ValueError):
        SolveResult(Verdict.SAT)
    with pytest.raises(ValueError):
        SolveResult(Verdict.UNSAT, model=[True])
    r = SolveResult(Verdict.SAT, model=[True, False])
    assert r.model == [True, False]


# -- the collector pause -----------------------------------------------------------


def test_library_calls_pause_the_collector_for_direct_callers(gc_probe):
    parse = gc_probe(dimacs, "_trusted_formula")
    construction = gc_probe(engine, "PhaseSelector")
    search = gc_probe(engine.Solver, "_search")
    gc.enable()
    formula, _ = parse_dimacs("p cnf 2 2\n1 2 0\n-1 0\n")
    assert gc.isenabled()
    solver = engine.Solver(formula)
    assert gc.isenabled()
    assert solver.solve().verdict is Verdict.SAT
    assert gc.isenabled()
    assert parse == construction == search == [False]


@pytest.mark.parametrize("enabled_before", [True, False])
def test_parse_error_restores_the_collector_state(gc_probe, enabled_before):
    report = gc_probe(dimacs, "_read_clauses")
    gc.enable() if enabled_before else gc.disable()
    with pytest.raises(DimacsError, match="line 2: invalid token 'oops'"):
        parse_dimacs("p cnf 2 1\n1 oops 0\n")
    assert gc.isenabled() is enabled_before
    assert report == [False]


@pytest.mark.parametrize("enabled_before", [True, False])
def test_failed_model_check_restores_the_collector_state(
    gc_probe, monkeypatch, enabled_before
):
    monkeypatch.setattr(engine, "check_model", lambda formula, model: False)
    check = gc_probe(engine, "check_model")
    solver = engine.Solver(Formula(1, [(0,)]))
    gc.enable() if enabled_before else gc.disable()
    with pytest.raises(RuntimeError, match="produced model fails a clause"):
        solver.solve()
    assert gc.isenabled() is enabled_before
    assert check == [False]
