"""Acceptance suite: one test per shipped claim, reported as one line each.

These tests restate the project's nine acceptance criteria end to end, on
top of (not instead of) the per-module unit suites.  Each criterion is a
single test function named ``test_criterion_<N>_*``; conftest.py turns the
results into a PASS/FAIL line per criterion in the terminal summary.
"""

import glob
import os
import random
import time

import pytest

import chronosat.engine as engine_module
from chronosat.bench import (
    CSV_HEADER,
    RunRecord,
    cactus_points,
    par2_score,
    read_csv,
    run_suite,
    scatter_points,
    write_csv,
)
from chronosat.cli import main as cli_main
from chronosat.dimacs import parse_dimacs_file
from chronosat.engine import Solver, choose_backtrack_level, solve_formula
from chronosat.gen import deep_conflict, pigeonhole, random_ksat
from chronosat.model import (
    Formula,
    PhaseHeuristic,
    SolverConfig,
    SolverStats,
    Verdict,
    make_clause,
    make_literal,
)
from chronosat.phase import PhaseSelector
from chronosat.verify import brute_force_solve, check_model

PRESET_A = "mldc-like"
PRESET_B = "mldc-lsids-like"

# Every cb-phase heuristic crossed with the three backtracking regimes:
# default hybrid, always-chronological, and hybrid with the warmup disabled.
TC_REGIMES = ((100, 4000), (0, 0), (100, 0))


def _matrix():
    return [
        SolverConfig(cb_phase_heuristic=heur, cb_threshold_t=t, cb_min_conflicts_c=c)
        for heur in PhaseHeuristic
        for (t, c) in TC_REGIMES
    ]


def test_criterion_1_oracle_equivalence_matrix():
    """>= 500 random 3-CNF instances plus pigeonhole formulas: every config
    in the 6x3 heuristic/regime matrix agrees with the brute-force oracle."""
    start = time.monotonic()
    matrix = _matrix()
    assert len(matrix) == 18

    rng = random.Random(0xACC1)
    agreements = 0
    for k in range(500):
        n_vars = 5 + k % 16  # cycles through 5..20
        formula = random_ksat(n_vars, ratio=4.26, rng=rng)
        expected = brute_force_solve(formula).verdict
        for config in matrix:
            result = solve_formula(formula, config)
            assert result.verdict is expected, (
                f"instance {k} ({n_vars} vars): got {result.verdict}, oracle "
                f"says {expected} (cb-phase={config.cb_phase_heuristic.value}, "
                f"T={config.cb_threshold_t}, C={config.cb_min_conflicts_c})"
            )
            agreements += 1

    for holes in (2, 3, 4):
        formula = pigeonhole(holes + 1, holes)
        assert brute_force_solve(formula).verdict is Verdict.UNSAT
        for config in matrix:
            assert solve_formula(formula, config).verdict is Verdict.UNSAT
            agreements += 1

    # pigeonhole(6, 5) has 30 variables, past the brute-force cap, but is
    # unsatisfiable by construction: six pigeons cannot fit five holes.
    formula = pigeonhole(6, 5)
    for config in matrix:
        assert solve_formula(formula, config).verdict is Verdict.UNSAT
        agreements += 1

    assert agreements == (500 + 4) * 18
    assert time.monotonic() - start < 600.0


def test_criterion_2_model_soundness(monkeypatch):
    """Every SAT model verifies externally, and the engine's exit path
    refuses to report SAT when the internal check fails."""
    rng = random.Random(0xACC2)
    sat_seen = 0
    for k in range(150):
        n_vars = 10 + k % 31  # cycles through 10..40
        formula = random_ksat(n_vars, ratio=3.6, rng=rng)
        result = solve_formula(formula)
        if result.verdict is Verdict.SAT:
            sat_seen += 1
            assert result.model is not None
            assert check_model(formula, result.model)
    assert sat_seen >= 75  # at ratio 3.6 most instances are satisfiable

    # Sabotage the checker the engine calls before returning SAT: solving a
    # trivially satisfiable formula must now blow up instead of lying.
    clause = make_clause([make_literal(0, True), make_literal(1, True)])
    assert clause is not None
    monkeypatch.setattr(engine_module, "check_model", lambda f, m: False)
    with pytest.raises(RuntimeError):
        solve_formula(Formula(2, [clause]))


def test_criterion_3_dps_update_rule():
    """The DPS recurrence reproduces the worked sequence exactly, and at
    dec=0.4 its choices coincide with phase saving over 10,000 histories."""
    config = SolverConfig(cb_phase_heuristic=PhaseHeuristic.DPS, dps_decay=0.7)
    selector = PhaseSelector(1, config, SolverStats())
    selector.on_assignment_erased(0, True)
    assert selector.dps[0] == pytest.approx(1.0, abs=1e-12)
    selector.on_assignment_erased(0, False)
    assert selector.dps[0] == pytest.approx(-0.3, abs=1e-12)

    # With dec=0.4 the decayed tail is bounded by dec/(1-dec) < 1, so the
    # score's sign always matches the polarity erased last.
    config4 = SolverConfig(cb_phase_heuristic=PhaseHeuristic.DPS, dps_decay=0.4)
    rng = random.Random(0xACC3)
    mismatches = 0
    for _ in range(10_000):
        selector = PhaseSelector(1, config4, SolverStats())
        for _ in range(rng.randint(1, 50)):
            selector.on_assignment_erased(0, rng.random() < 0.5)
        if selector.select_phase(0, True) != selector.saved[0]:
            mismatches += 1
    assert mismatches == 0


def test_criterion_4_lsids_arithmetic():
    """Literal-activity bumps, the increment growth curve, and rescore
    invariance on a randomized 1,000-variable table."""
    config = SolverConfig(cb_phase_heuristic=PhaseHeuristic.LSIDS)
    selector = PhaseSelector(2, config, SolverStats())

    selector.on_assignment_erased(0, True)  # assignment bump: mult 2
    assert selector.lsids_activity[make_literal(0, True)] == pytest.approx(
        2.0, abs=1e-12
    )
    selector.on_clause_learnt([make_literal(1, False)])  # reason bump: mult 0.5
    assert selector.lsids_activity[make_literal(1, False)] == pytest.approx(
        0.5, abs=1e-12
    )

    # One decay per learnt clause: after k clauses the increment is (1/0.95)^k.
    assert selector.lsids_inc == pytest.approx(1.0 / 0.95, rel=1e-12)
    for _ in range(9):
        selector.on_clause_learnt([])
    assert selector.lsids_inc == pytest.approx((1.0 / 0.95) ** 10, rel=1e-12)

    big = PhaseSelector(1000, config, SolverStats())
    rng = random.Random(0xACC4)
    for i in range(2 * 1000):
        big.lsids_activity[i] = rng.uniform(0.0, 1e100)
    before = [big.select_phase(v, True) for v in range(1000)]
    big.lsids_rescore()
    after = [big.select_phase(v, True) for v in range(1000)]
    assert after == before


def test_criterion_5_chronological_backtracking_mechanics():
    """The T/C decision table, exact non-monotonic trail surgery, and a
    corpus instance that actually takes chronological backtracks."""
    config = SolverConfig(cb_threshold_t=100, cb_min_conflicts_c=4000)

    assert choose_backtrack_level(150, 10, 5000, config) == (149, True)
    assert choose_backtrack_level(150, 10, 100, config) == (10, False)
    assert choose_backtrack_level(50, 10, 5000, config) == (10, False)

    # Backtracking to 2 on trail levels [1, 3, 2, 3] must remove exactly the
    # level-3 entries, including the one sitting before the level-2 entry.
    solver = Solver(Formula(4, []))
    for n, lvl in ((1, 1), (2, 3), (-3, 2), (4, 3)):
        solver._enqueue(make_literal(abs(n) - 1, n > 0), None, lvl)
    solver.decision_level = 3
    solver._backtrack_to(2)
    assert solver.trail == [make_literal(0, True), make_literal(2, False)]
    assert solver.value[make_literal(1, True)] == 0
    assert solver.value[make_literal(3, True)] == 0
    assert solver.decision_level == 2

    result = solve_formula(
        deep_conflict(150), SolverConfig(cb_threshold_t=100, cb_min_conflicts_c=0)
    )
    assert result.verdict is Verdict.UNSAT
    assert result.stats.cb_backtracks > 0


def test_criterion_6_pack_performance_floor(pack_dir):
    """The default configuration solves every bundled pack instance in
    under a second and the whole pack in under two minutes, single-threaded."""
    paths = sorted(glob.glob(os.path.join(pack_dir, "*.cnf")))
    names = [os.path.basename(p) for p in paths]
    assert len(paths) == 200
    assert sum(1 for n in names if n.startswith("sat_")) == 100
    assert sum(1 for n in names if n.startswith("unsat_")) == 100

    config = SolverConfig()
    total = 0.0
    worst = 0.0
    for path, name in zip(paths, names):
        formula, _ = parse_dimacs_file(path)
        assert formula.variable_count == 50
        assert formula.clause_count == 218
        result = solve_formula(formula, config)
        expected = Verdict.SAT if name.startswith("sat_") else Verdict.UNSAT
        assert result.verdict is expected, name
        total += result.stats.wall_time_seconds
        worst = max(worst, result.stats.wall_time_seconds)
    assert worst < 1.0
    assert total < 120.0


def test_criterion_7_harness_arithmetic(pack_dir, tmp_path):
    """PAR-2 on the synthetic pair is exactly 5050.0, the CSV header is
    pinned verbatim, and worker counts cannot change results."""
    records = [
        RunRecord("easy.cnf", "cfg", "SAT", 100.0, False),
        RunRecord("hard.cnf", "cfg", "UNKNOWN", 5000.0, True),
    ]
    assert par2_score(records, 5000.0) == 5050.0

    pinned = (
        "instance,configLabel,verdict,time_s,timed_out,conflicts,decisions,"
        "propagations,restarts,cb_backtracks,ncb_backtracks,lsids_decisions,"
        "lsids_differs_saved"
    )
    assert ",".join(CSV_HEADER) == pinned
    out = tmp_path / "pinned.csv"
    write_csv(records, str(out))
    assert out.read_text().splitlines()[0] == pinned

    subset = sorted(glob.glob(os.path.join(pack_dir, "*.cnf")))[:30]
    configs = [("default", SolverConfig())]
    serial = run_suite(subset, configs, workers=1)
    threaded = run_suite(subset, configs, workers=8)

    def key(record):
        return (
            record.instance,
            record.config_label,
            record.verdict,
            record.timed_out,
            record.conflicts,
            record.decisions,
            record.propagations,
            record.restarts,
            record.cb_backtracks,
            record.ncb_backtracks,
            record.lsids_decisions,
            record.lsids_differs_saved,
        )

    assert [key(r) for r in serial] == [key(r) for r in threaded]


def test_criterion_8_ab_methodology_smoke(pack_dir, tmp_path, capsys):
    """`bench` under both presets covers every pack instance, yields
    plot-ready cactus/scatter data, and populates the LSIDS statistics."""
    out_a = tmp_path / "preset_a.csv"
    out_b = tmp_path / "preset_b.csv"
    argv_a = ["bench", pack_dir, "--preset", PRESET_A,
              "--time-limit", "10", "--out", str(out_a)]
    argv_b = ["bench", pack_dir, "--preset", PRESET_B,
              "--time-limit", "10", "--out", str(out_b)]
    assert cli_main(argv_a) == 0
    assert cli_main(argv_b) == 0
    capsys.readouterr()  # progress chatter is not under test

    records = read_csv(str(out_a)) + read_csv(str(out_b))
    assert len(records) == 400

    # scatter_points raises unless both labels cover identical instances
    points = scatter_points(records, PRESET_A, PRESET_B, 10.0)
    assert len(points) == 200
    curves = cactus_points(records)
    assert set(curves) == {PRESET_A, PRESET_B}

    for record in records:
        assert record.lsids_decisions >= 0
        assert record.lsids_differs_saved >= 0
        fraction = (
            record.lsids_differs_saved / record.lsids_decisions
            if record.lsids_decisions
            else 0.0
        )
        assert 0.0 <= fraction <= 1.0

    # The counters do engage once chronological mode is reachable: force it.
    formula, _ = parse_dimacs_file(os.path.join(pack_dir, "unsat_000.cnf"))
    result = solve_formula(
        formula,
        SolverConfig(
            cb_phase_heuristic=PhaseHeuristic.LSIDS,
            cb_threshold_t=0,
            cb_min_conflicts_c=0,
        ),
    )
    assert result.stats.lsids_decisions > 0
    assert (
        0
        <= result.stats.lsids_differs_from_saved
        <= result.stats.lsids_decisions
    )


def test_criterion_9_seeded_runs_are_byte_identical(pack_dir, capsys):
    """Two `solve` runs with identical flags and seed print byte-identical
    stats lines (wall time lives on its own line, outside the contract)."""
    path = os.path.join(pack_dir, "unsat_000.cnf")
    argv = [
        "solve", path, "--preset", PRESET_B,
        "--phase-ncb", "random", "--seed", "7",
    ]

    assert cli_main(list(argv)) == 20
    first = capsys.readouterr().out
    assert cli_main(list(argv)) == 20
    second = capsys.readouterr().out

    stats_first = [l for l in first.splitlines() if l.startswith("c stat ")]
    stats_second = [l for l in second.splitlines() if l.startswith("c stat ")]
    assert len(stats_first) == 8
    assert stats_first == stats_second

    verdict_first = [l for l in first.splitlines() if l.startswith("s ")]
    verdict_second = [l for l in second.splitlines() if l.startswith("s ")]
    assert verdict_first == verdict_second == ["s UNSATISFIABLE"]
