import itertools
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import chronosat
from chronosat.engine import solve_formula
from chronosat.gen import pigeonhole, random_ksat
from chronosat.model import Formula, Verdict, make_clause, make_literal
from chronosat.verify import (
    BRUTE_FORCE_VAR_CAP,
    brute_force_solve,
    check_model,
    first_falsified_clause,
)


def fml(nvars, clause_lists):
    clauses = []
    for lits in clause_lists:
        c = make_clause([make_literal(abs(n) - 1, n > 0) for n in lits])
        assert c is not None
        clauses.append(c)
    return Formula(nvars, clauses)


def test_check_model_satisfied():
    f = fml(2, [[1, -2]])
    assert check_model(f, [True, True]) is True
    assert check_model(f, [False, False]) is True


def test_check_model_falsified():
    f = fml(2, [[1, -2]])
    assert check_model(f, [False, True]) is False
    assert first_falsified_clause(f, [False, True]) == 0


def test_check_model_requires_total_assignment():
    f = fml(2, [[1, -2]])
    with pytest.raises(ValueError):
        check_model(f, [True])


@pytest.mark.parametrize(
    "formula, model",
    [
        (pigeonhole(2, 1), [None, None]),
        # 2 equals neither False nor True, so it would "satisfy" x and ~x.
        (Formula(1, [(0,), (1,)]), [2]),
    ],
    ids=["none-on-unsat", "two-on-contradiction"],
)
def test_check_model_rejects_a_value_that_is_not_a_bool(formula, model):
    with pytest.raises(ValueError, match="not a bool"):
        check_model(formula, model)
    # 0 and 1 compare equal to False and True, so they stay accepted.
    assert check_model(Formula(2, [(0,), (3,)]), [1, 0]) is True


def test_check_model_empty_clause_never_satisfied():
    f = Formula(1, [make_clause([])])
    assert check_model(f, [True]) is False


def test_brute_force_returns_first_lexicographic_model():
    # (x0 or x1) and (not x0 or not x1): [False, True] precedes [True, False].
    f = fml(2, [[1, 2], [-1, -2]])
    r = brute_force_solve(f)
    assert r.verdict is Verdict.SAT
    assert r.model == [False, True]


def test_brute_force_unsat_all_sign_combinations():
    f = fml(2, [[1, 2], [1, -2], [-1, 2], [-1, -2]])
    assert brute_force_solve(f).verdict is Verdict.UNSAT


def test_brute_force_empty_formula_is_sat():
    r = brute_force_solve(Formula(0, []))
    assert r.verdict is Verdict.SAT
    assert r.model == []


def test_brute_force_empty_clause_is_unsat():
    f = Formula(3, [make_clause([])])
    assert brute_force_solve(f).verdict is Verdict.UNSAT


def test_brute_force_model_prefers_false():
    # No constraints: the first model assigns every variable False.
    f = Formula(3, [])
    r = brute_force_solve(f)
    assert r.model == [False, False, False]


def test_brute_force_tautology_rules_out_nothing():
    # (x1 or not x1) and x1: the tautology must not rule out [True].
    r = brute_force_solve(Formula(1, [(0, 1), (0,)]))
    assert r.verdict is Verdict.SAT
    assert r.model == [True]


def test_brute_force_agrees_with_engine_on_repeated_variables():
    # Clauses drawn with replacement repeat variables, so some hold a
    # duplicate literal and some a tautology.
    rng = random.Random(2024)
    for _ in range(2000):
        n = rng.randint(1, 8)
        clauses = [
            tuple(
                make_literal(rng.randrange(n), rng.random() < 0.5)
                for _ in range(rng.randint(1, 4))
            )
            for _ in range(rng.randint(1, 3 * n))
        ]
        f = Formula(n, clauses)
        normalised = Formula(n, [c for c in map(make_clause, clauses) if c is not None])
        got = brute_force_solve(f)
        assert got.verdict is solve_formula(f).verdict, clauses
        if got.verdict is Verdict.SAT:
            assert check_model(f, got.model)
            assert got.model == _reference_enumerate(normalised)


def test_brute_force_enforces_variable_cap():
    with pytest.raises(ValueError):
        brute_force_solve(Formula(BRUTE_FORCE_VAR_CAP + 1, []))


@pytest.mark.parametrize("n", [17, 21])
@pytest.mark.parametrize(
    "true_vars",
    [
        pytest.param(lambda n: [0], id="first-true"),
        pytest.param(lambda n: [n - 1], id="last-true"),
        pytest.param(range, id="all-true"),
    ],
)
def test_brute_force_finds_the_single_model_in_any_block(n, true_vars):
    # Past 16 variables the first n - 16 pick the block: the last-true model
    # lies in the first block, first-true in a later one, all-true in the
    # last one.
    model = [False] * n
    for v in true_vars(n):
        model[v] = True
    f = Formula(n, [(make_literal(v, value),) for v, value in enumerate(model)])
    r = brute_force_solve(f)
    assert r.verdict is Verdict.SAT
    assert r.model == model


def test_brute_force_unsat_at_the_variable_cap():
    f = random_ksat(BRUTE_FORCE_VAR_CAP, ratio=6.0, seed=26)
    assert brute_force_solve(f).verdict is Verdict.UNSAT
    assert solve_formula(f).verdict is Verdict.UNSAT


def _reference_enumerate(f):
    for bits in itertools.product([False, True], repeat=f.variable_count):
        model = list(bits)
        if check_model(f, model):
            return model
    return None


def _direct_formula(rng):
    """n = 0..8 without make_clause: repeated and complementary literals
    and, now and then, an empty clause."""
    n = rng.randint(0, 8)
    clauses = []
    for _ in range(rng.randint(0, 3 * n + 1)):
        size = 0 if n == 0 or rng.random() < 0.05 else rng.randint(1, 4)
        lits = [make_literal(rng.randrange(n), rng.random() < 0.5) for _ in range(size)]
        if lits and rng.random() < 0.3:
            lits.append(rng.choice(lits) ^ rng.randint(0, 1))
        clauses.append(tuple(lits))
    return Formula(n, clauses)


@settings(deadline=None, max_examples=120)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
def test_brute_force_matches_plain_enumeration(seed, direct):
    rng = random.Random(seed)
    if direct:
        f = _direct_formula(rng)
    else:
        n = rng.randint(3, 8)
        f = random_ksat(n, n_clauses=rng.randint(1, 4 * n), rng=rng)
    expected = _reference_enumerate(f)
    got = brute_force_solve(f)
    if expected is None:
        assert got.verdict is Verdict.UNSAT
    else:
        assert got.verdict is Verdict.SAT
        assert got.model == expected


def test_brute_force_sat_model_always_checks():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(3, 10)
        f = random_ksat(n, rng=rng)
        r = brute_force_solve(f)
        if r.verdict is Verdict.SAT:
            assert check_model(f, r.model)


def test_solver_and_referee_load_only_the_standard_library():
    # Modules loaded at interpreter start-up (site hooks) are not ours, so
    # only those the imports and the referee call add are checked.
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(chronosat.__file__)))
    env = dict(os.environ, PYTHONPATH=src_dir)
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import chronosat, chronosat.cli\n"
        "from chronosat.gen import pigeonhole\n"
        "chronosat.brute_force_solve(pigeonhole(3, 2))\n"
        "tops = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
        "foreign = tops - set(sys.stdlib_module_names) - {'chronosat'}\n"
        "assert not foreign, sorted(foreign)\n"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
