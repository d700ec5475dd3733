import random

import pytest

from chronosat.gen import deep_conflict, pigeonhole, random_ksat
from chronosat.model import Verdict
from chronosat.verify import brute_force_solve


def test_random_ksat_ratio_sets_clause_count():
    f = random_ksat(10, seed=1)
    assert f.variable_count == 10
    assert f.clause_count == round(4.26 * 10)


def test_random_ksat_explicit_clause_count():
    f = random_ksat(8, n_clauses=5, seed=1)
    assert f.clause_count == 5


def test_random_ksat_clauses_use_three_distinct_variables():
    f = random_ksat(12, seed=42)
    for c in f.clauses:
        assert type(c) is tuple
        assert len({l >> 1 for l in c}) == 3


def test_random_ksat_deterministic_per_seed():
    a = random_ksat(9, seed=5)
    b = random_ksat(9, seed=5)
    assert a.clauses == b.clauses
    assert a.clauses != random_ksat(9, seed=6).clauses


def test_random_ksat_rejects_too_few_variables():
    with pytest.raises(ValueError):
        random_ksat(2)


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"k": 0, "n_clauses": 2}, "k=0"),
        ({"k": -1, "n_clauses": 2}, "k=-1"),
        ({"n_clauses": -3}, "n_clauses >= 0, got -3"),
        ({"ratio": -1.0}, "ratio >= 0"),
        ({"ratio": float("inf")}, "ratio >= 0, got inf"),
        ({"ratio": float("nan")}, "ratio >= 0, got nan"),
        ({"k": True, "n_clauses": 2}, "k=True"),
        ({"n_clauses": 2.0}, "n_clauses >= 0, got 2.0"),
        ({"n_vars": 10.5, "ratio": 2.0}, "n_vars=10.5"),
        ({"ratio": True}, "ratio >= 0, got True"),
        ({"ratio": False}, "ratio >= 0, got False"),
        ({"ratio": "4"}, "ratio >= 0, got '4'"),
    ],
    ids=["k0", "k-1", "n_clauses", "ratio", "ratio-inf", "ratio-nan", "k-bool",
         "n_clauses-float", "n_vars-float", "ratio-true", "ratio-false", "ratio-str"],
)
def test_random_ksat_rejects_an_impossible_shape_before_drawing(kwargs, match):
    rng = random.Random(4)
    state = rng.getstate()
    with pytest.raises(ValueError, match=match):
        random_ksat(**{"n_vars": 5, **kwargs}, rng=rng)
    assert rng.getstate() == state


def test_random_ksat_accepts_shared_rng():
    rng = random.Random(3)
    f1 = random_ksat(6, n_clauses=4, rng=rng)
    f2 = random_ksat(6, n_clauses=4, rng=rng)
    assert f1.clauses != f2.clauses


def test_pigeonhole_shape():
    p, h = 4, 3
    f = pigeonhole(p, h)
    assert f.variable_count == p * h
    assert f.clause_count == p + h * (p * (p - 1) // 2)
    assert all(type(c) is tuple for c in f.clauses)


def test_pigeonhole_square_is_sat():
    assert brute_force_solve(pigeonhole(2, 2)).verdict is Verdict.SAT


def test_pigeonhole_overfull_is_unsat():
    assert brute_force_solve(pigeonhole(3, 2)).verdict is Verdict.UNSAT
    assert brute_force_solve(pigeonhole(4, 3)).verdict is Verdict.UNSAT


def test_pigeonhole_validates_arguments():
    for pigeons, holes, match in [
        (0, 2, "pigeons=0"), (2.5, 2, "pigeons=2.5"), (True, 1, "pigeons=True"),
        (2, 0, "holes=0"), (2, 1.0, "holes=1.0"),
    ]:
        with pytest.raises(ValueError, match=match):
            pigeonhole(pigeons, holes)


def test_deep_conflict_shape_and_verdict():
    f = deep_conflict(padding=150)
    assert f.variable_count == 152
    assert f.clause_count == 4
    assert all(type(c) is tuple for c in f.clauses)
    # Same constraint core at a brute-forceable size.
    small = deep_conflict(padding=3)
    assert brute_force_solve(small).verdict is Verdict.UNSAT


@pytest.mark.parametrize("padding", [-1, 2.5, True])
def test_deep_conflict_rejects_a_padding_that_is_not_an_int_at_least_0(padding):
    with pytest.raises(ValueError, match=f"padding={padding!r}"):
        deep_conflict(padding)
