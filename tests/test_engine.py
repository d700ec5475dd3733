import functools
import glob
import itertools
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from chronosat import engine
from chronosat.cli import PRESETS
from chronosat.dimacs import parse_dimacs_file
from chronosat.engine import Clause, Solver, luby, solve_formula
from chronosat.gen import pigeonhole, random_ksat
from chronosat.model import (
    Formula,
    PhaseHeuristic,
    RestartPolicy,
    SolverConfig,
    Verdict,
    make_clause,
    make_literal,
)
from chronosat.phase import PhaseSelector
from chronosat.verify import brute_force_solve, check_model

from invariants import (
    check_backtrack_start,
    check_conflict,
    check_invariants,
    check_learnt,
    check_queue_start,
    debug_check_watches,
)


def fml(nvars, clause_lists):
    clauses = []
    for lits in clause_lists:
        c = make_clause([make_literal(abs(n) - 1, n > 0) for n in lits])
        assert c is not None
        clauses.append(c)
    return Formula(nvars, clauses)


def lit(n):
    return make_literal(abs(n) - 1, n > 0)


# -- basic verdicts -----------------------------------------------------------


def test_empty_formula_is_sat():
    r = solve_formula(Formula(0, []))
    assert r.verdict is Verdict.SAT
    assert r.model == []


def test_unconstrained_variables_get_a_model():
    r = solve_formula(Formula(3, []))
    assert r.verdict is Verdict.SAT
    assert len(r.model) == 3


def test_empty_clause_is_unsat():
    f = Formula(1, [make_clause([])])
    r = solve_formula(f)
    assert r.verdict is Verdict.UNSAT


def test_complementary_units_are_unsat():
    r = solve_formula(fml(1, [[1], [-1]]))
    assert r.verdict is Verdict.UNSAT


def test_duplicate_units_are_sat():
    r = solve_formula(fml(2, [[1], [1], [2]]))
    assert r.verdict is Verdict.SAT
    assert r.model == [True, True]


def test_simple_sat_instance():
    f = fml(2, [[1, 2], [-1, -2]])
    r = solve_formula(f)
    assert r.verdict is Verdict.SAT
    assert check_model(f, r.model)


def test_all_sign_combinations_unsat():
    f = fml(2, [[1, 2], [1, -2], [-1, 2], [-1, -2]])
    r = solve_formula(f)
    assert r.verdict is Verdict.UNSAT


# -- propagation --------------------------------------------------------------


def test_unit_chain_propagates_at_level_zero():
    f = fml(4, [[1], [-1, 2], [-2, 3], [-3, 4]])
    s = Solver(f)
    r = s.solve()
    assert r.verdict is Verdict.SAT
    assert r.model == [True, True, True, True]
    assert r.stats.decisions == 0
    assert r.stats.conflicts == 0
    assert all(s.level[l >> 1] == 0 for l in s.trail)


def test_propagation_counts_queue_pops():
    f = fml(3, [[1], [-1, 2], [-2, 3]])
    s = Solver(f)
    s.solve()
    assert s.stats.propagations == 3

    # On a conflict.  Trail x1@1, x4@2, x2@1; (~x4 or x3) implies x3@2
    # behind x2, and dequeuing x2 falsifies (~x2 or ~x3).  The count takes
    # x1, x4 and the interrupted x2, but not x3, which was never dequeued.
    f = fml(4, [[-4, 3], [-2, -3]])
    s = Solver(f)
    s._enqueue(lit(1), None, 1)
    s._enqueue(lit(4), None, 2)
    s._enqueue(lit(2), None, 1)
    assert s._propagate() is not None
    assert s.trail == [lit(1), lit(4), lit(2), lit(3)]
    assert (s.qhead, s.stats.propagations) == (3, 3)
    # Backtracking to level 1 erases x4 and x3 and sets the head to the cut,
    # where x2 is put back; the second call counts x2 again, then ~x3 and ~x4.
    s._backtrack_to(1)
    assert s._propagate() is None
    assert s.trail == [lit(1), lit(2), lit(-3), lit(-4)]
    assert s.stats.propagations == 3 + 3


def test_implied_literal_level_is_max_falsified_level():
    # Clause (x1 or x2 or x3) becomes unit after ~x1 and ~x2 are planted at
    # levels 3 and 7 on a non-monotonic trail; x3 must land at level 7, not
    # at the current decision level.
    f = fml(5, [[1, 2, 3]])
    s = Solver(f)
    s._enqueue(lit(-1), None, 3)
    s._enqueue(lit(-2), None, 7)
    confl = s._propagate()
    assert confl is None
    assert s.value[lit(3)] > 0
    assert s.level[2] == 7


def test_binary_implied_literal_level_follows_falsifier():
    f = fml(3, [[1, 2]])
    s = Solver(f)
    s._enqueue(lit(-1), None, 4)
    assert s._propagate() is None
    assert s.value[lit(2)] > 0
    assert s.level[1] == 4


def test_binary_clause_satisfied_above_falsifier_implies_after_backtrack():
    # (x1 or x2): x2 is true at level 5 when ~x1 arrives at level 2, so the
    # clause is satisfied and nothing is implied.  Backtracking to level 2
    # erases x2 and leaves ~x1; propagating again must imply x2 at level 2.
    f = fml(2, [[1, 2]])
    s = Solver(f)
    s._enqueue(lit(2), None, 5)
    s._enqueue(lit(-1), None, 2)
    assert s._propagate() is None
    assert s.trail == [lit(2), lit(-1)]
    s._backtrack_to(2)
    assert s._propagate() is None
    assert s.value[lit(2)] > 0
    assert s.level[1] == 2
    assert s.reason[1] is s.clauses[0]
    assert s.clauses[0].lits[0] == lit(2)
    debug_check_watches(s)


def test_conflict_keeps_later_watchers_of_the_same_literal_in_order():
    # Three clauses watch x1.  On ~x1 the first moves its watch to x5,
    # leaving a gap, the second conflicts, and the third is never visited:
    # it must stay watched, in order, right after the conflicting clause.
    # The trail is one a chronological backtrack leaves: decisions x6 and
    # x7 open levels 1 and 2, and ~x1 at level 1 follows them, out of
    # level order, before ~x2 at level 2.  The head is past the decisions,
    # as in search.
    f = fml(7, [[1, 4, 5], [1, 2], [1, 3]])
    s = Solver(f)
    mover, confl_clause, later = s.clauses
    s._enqueue(lit(6), None, 1)
    s._enqueue(lit(7), None, 2)
    s._enqueue(lit(-1), None, 1)
    s._enqueue(lit(-2), None, 2)
    s.qhead = 2
    check_queue_start(s)
    confl = s._propagate()
    assert confl is confl_clause
    check_conflict(s, confl)
    assert s.trail[s.qhead - 1] == lit(-1)
    assert s.watches[lit(1)] == [confl_clause, lit(2), later, lit(3)]
    assert s.watches[lit(5)] == [mover, lit(4)]
    # Level 1 keeps ~x1, which is put back where level 2 opened; the
    # backtrack sets the head there, so ~x1's watchers are scanned again.
    s._backtrack_to(1)
    assert s.trail == [lit(6), lit(-1)]
    assert s.qhead == 1
    assert s._propagate() is None
    assert s.value[lit(2)] > 0 and s.value[lit(3)] > 0
    assert s.level[1] == s.level[2] == 1
    assert s.watches[lit(1)] == [confl_clause, lit(2), later, lit(3)]
    debug_check_watches(s)


def test_debug_check_watches_rejects_a_broken_flat_layout():
    s = Solver(fml(3, [[1, 2], [2, 3]]))
    debug_check_watches(s)
    s.watches[lit(1)].append(lit(2))
    with pytest.raises(AssertionError, match="odd length"):
        debug_check_watches(s)
    s.watches[lit(1)][-1:] = [lit(2), lit(3)]
    with pytest.raises(AssertionError, match="holds"):
        debug_check_watches(s)
    del s.watches[lit(1)][-2:]
    s.watches[lit(1)][1] = lit(3)
    with pytest.raises(AssertionError, match="blocker"):
        debug_check_watches(s)


def test_conflict_detected_on_fully_falsified_clause():
    f = fml(2, [[1, 2]])
    s = Solver(f)
    s._enqueue(lit(-1), None, 1)
    s._enqueue(lit(-2), None, 2)
    confl = s._propagate()
    assert confl is not None
    assert sorted(confl.lits) == sorted([lit(1), lit(2)])
    assert s.conflict_level == 2


# -- backtracking surgery -----------------------------------------------------


def test_enqueue_records_the_open_levels_in_decision_level():
    # Each enqueue opens the levels up to its own and records how many are
    # open; one at or below the top level opens none.
    s = Solver(Formula(5, []))
    for n, lv in ((1, 1), (2, 3), (-3, 2), (4, 3)):
        s._enqueue(lit(n), None, lv)
    assert s.decision_level == len(s.trail_lim) == 3
    s._backtrack_to(2)
    s._enqueue(lit(5), None, 1)
    assert s.decision_level == len(s.trail_lim) == 2


def test_backtrack_updates_saved_phase_for_erased_only():
    s = Solver(Formula(3, []))
    s._enqueue(lit(1), None, 1)
    s._enqueue(lit(-2), None, 2)
    s._enqueue(lit(3), None, 3)
    s._backtrack_to(1)
    assert s.phase.saved == [False, False, True]


def test_backtrack_rewinds_qhead_to_first_removed_position():
    s = Solver(Formula(4, []))
    s._enqueue(lit(1), None, 1)
    s._enqueue(lit(2), None, 2)
    s._enqueue(lit(3), None, 1)
    s._enqueue(lit(4), None, 2)
    s.qhead = 4
    s._backtrack_to(1)
    assert s.trail == [lit(1), lit(3)]
    assert s.qhead == 1


# -- restarts -----------------------------------------------------------------


def test_luby_sequence_prefix():
    assert [luby(i) for i in range(15)] == [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]


@pytest.mark.parametrize("index", [-1, -7])
def test_luby_rejects_a_negative_index(index):
    with pytest.raises(ValueError, match=f"got {index}"):
        luby(index)


def test_restart_preserves_saved_phases_and_resets_mode():
    s = Solver(Formula(3, []))
    s._enqueue(lit(1), None, 1)
    s._enqueue(lit(-2), None, 2)
    s._enqueue(lit(3), None, 3)
    s.in_cb_state = True
    s._restart()
    assert s.trail == []
    assert s.stats.restarts == 1
    assert s.stats.cb_backtracks == 0 and s.stats.ncb_backtracks == 0
    assert not s.in_cb_state
    assert s.phase.saved == [True, False, True]


def test_luby_restarts_fire_on_conflict_heavy_instance():
    f = random_ksat(60, ratio=4.3, seed=0)
    r = solve_formula(f, SolverConfig())
    assert r.verdict is Verdict.UNSAT
    assert r.stats.restarts >= 1


def check_restart_timing(s, rule_holds, on_conflict, on_restart):
    """Wrap s so that every restart finds the restart rule holding and every
    pick finds it not holding above level 0, i.e. no restart came early and
    none was missed.  on_conflict sees each lbd _analyze returns and
    on_restart runs after each restart; both update the rule's inputs.
    Returns the number of picks checked."""
    analyze, restart, pick = s._analyze, s._restart, s._pick_branch_var
    picks = 0

    def checked_analyze(confl, conflict_level):
        out = analyze(confl, conflict_level)
        on_conflict(out[2])
        return out

    def checked_restart():
        assert s.decision_level > 0 and rule_holds()
        restart()
        on_restart()

    def checked_pick():
        nonlocal picks
        picks += 1
        assert not (s.decision_level > 0 and rule_holds())
        return pick()

    s._analyze, s._restart, s._pick_branch_var = (
        checked_analyze,
        checked_restart,
        checked_pick,
    )
    return lambda: picks


@pytest.mark.parametrize("seed", [2, 3])
def test_luby_restart_fires_exactly_at_the_budget(seed):
    # The budget is computed once per restart; restarts must still happen
    # exactly when luby(restarts) * luby_base conflicts have passed since
    # the last one.
    cfg = SolverConfig(cb_threshold_t=0, cb_min_conflicts_c=0, luby_base=4)
    s = Solver(random_ksat(100, ratio=4.26, seed=seed), cfg)
    since = 0

    def on_conflict(lbd):
        nonlocal since
        since += 1

    def on_restart():
        nonlocal since
        since = 0

    picks = check_restart_timing(
        s,
        lambda: since >= luby(s.stats.restarts) * cfg.luby_base,
        on_conflict,
        on_restart,
    )
    stats = s.solve().stats
    assert stats.restarts >= 10 and picks() >= stats.decisions


def test_glucose_restart_fires_exactly_when_recent_lbd_exceeds_global():
    # Reference rule from the lbds _analyze returns: a full window of the
    # last GLUCOSE_WINDOW lbds since the restart, whose mean times the
    # margin exceeds the mean over all counted conflicts.
    s = Solver(pigeonhole(7, 6), SolverConfig(restart_policy="glucose"))
    window, every = [], []

    def rule_holds():
        recent = window[-engine.GLUCOSE_WINDOW :]
        return (
            len(recent) == engine.GLUCOSE_WINDOW
            and sum(recent) / engine.GLUCOSE_WINDOW * engine.GLUCOSE_MARGIN
            > sum(every) / len(every)
        )

    picks = check_restart_timing(
        s,
        rule_holds,
        lambda lbd: (window.append(lbd), every.append(lbd)),
        window.clear,
    )
    stats = s.solve().stats
    assert stats.restarts >= 3 and picks() >= stats.decisions
    assert len(every) == stats.conflicts - 1  # the final conflict is at level 0


def test_glucose_restarts_fire_and_verdict_matches():
    f = pigeonhole(7, 6)
    r = solve_formula(f, SolverConfig(restart_policy="glucose"))
    assert r.verdict is Verdict.UNSAT
    assert r.stats.restarts >= 1


# -- activity heap ------------------------------------------------------------


def test_branching_ties_prefer_lowest_index():
    s = Solver(Formula(5, []))
    assert s._pick_branch_var() == 0


def test_level_zero_units_never_enter_the_heap():
    s = Solver(Formula(3, [(2,)]))  # the unit assigns variable 1
    assert sorted(s.heap) == [(-0.0, 0), (-0.0, 2)]
    assert s.heap_act == [0.0, -1.0, 0.0]


def test_bumped_variable_is_picked_first():
    s = Solver(Formula(5, []))
    s._enqueue(lit(4), None, 1)  # the engine only bumps assigned variables
    s._var_bump(3)
    s._backtrack_to(0)
    assert s._pick_branch_var() == 3


def test_rescale_preserves_activity_order():
    s = Solver(Formula(4, []))
    s.var_inc = 6e99
    s._var_bump(2)  # 6e99, below the limit
    s._var_bump(1)
    s._var_bump(1)  # 1.2e100 -> rescale fires
    assert max(s.var_activity) < 2.0  # rescale happens just past the limit
    assert s.var_activity[1] > s.var_activity[2] > s.var_activity[0]
    assert s._pick_branch_var() == 1


def test_stale_heap_entries_are_skipped():
    s = Solver(Formula(3, []))
    s._enqueue(lit(1), None, 1)
    s._enqueue(lit(3), None, 2)
    s._var_bump(0)
    s._var_bump(2)
    s._var_bump(2)
    s._backtrack_to(0)
    assert s._pick_branch_var() == 2
    s._enqueue(lit(3), None, 0)  # assign var 2, as the engine does after picking
    s._enqueue(lit(1), None, 0)  # var 0 gets assigned by propagation elsewhere
    assert s._pick_branch_var() == 1  # stale and assigned entries all skipped


def test_decision_variable_never_assigned_twice():
    f = random_ksat(20, ratio=4.0, seed=3)
    s = Solver(f)
    r = s.solve()
    assert r.verdict in (Verdict.SAT, Verdict.UNSAT)
    assert len(set(l >> 1 for l in s.trail)) == len(s.trail)


@pytest.mark.parametrize(
    "seed,t,var_inc",
    [(2, 0, 1.0), (2, 5, 1.0), (3, 0, 1.0), (3, 5, 1.0), (2, 0, 1e99)],
    ids=["s2-T0", "s2-T5", "s3-T0", "s3-T5", "s2-T0-rescale"],
)
def test_heap_holds_current_entry_of_every_unassigned_variable(
    seed, t, var_inc, monkeypatch
):
    # _var_bump pushes nothing, so a pick is right only if every variable
    # is assigned when bumped and the erase push in _backtrack_to gives each
    # unassigned variable an entry with its current activity.  The erase
    # pushes only when that entry is missing, so after every backtrack no
    # entry is duplicated, pushes never exceed erased entries, and
    # heap_act names each variable's newest entry (or -1.0 once popped).
    cfg = SolverConfig(cb_threshold_t=t, cb_min_conflicts_c=0, luby_base=4)
    s = Solver(random_ksat(100, ratio=4.26, seed=seed), cfg)
    s.var_inc = var_inc
    bump, pick, backtrack = s._var_bump, s._pick_branch_var, s._backtrack_to
    rescales = 0
    pushes = 0
    push = engine.heappush

    def counting_push(heap, entry):
        nonlocal pushes
        pushes += 1
        push(heap, entry)

    def checked_backtrack(target):
        trail_before, pushes_before = len(s.trail), pushes
        backtrack(target)
        assert pushes - pushes_before <= trail_before - len(s.trail)
        assert len(set(s.heap)) == len(s.heap), "duplicate heap entry"
        newest = {}
        for neg_act, v in s.heap:
            newest[v] = max(newest.get(v, -1.0), -neg_act)
        for v in range(s.n_vars):
            if s.value[v << 1] == 0:
                assert newest.get(v) == s.var_activity[v] == s.heap_act[v]
            else:
                assert s.heap_act[v] in (-1.0, newest.get(v))

    def checked_bump(v):
        nonlocal rescales
        assert s.value[v << 1] != 0, f"x{v + 1} bumped while unassigned"
        before = s.var_inc
        bump(v)
        rescales += s.var_inc < before

    def checked_pick():
        acts = s.var_activity
        entries = set(s.heap)
        free = [v for v in range(s.n_vars) if s.value[v << 1] == 0]
        for v in free:
            assert (-acts[v], v) in entries, f"x{v + 1} has no current entry"
        v = pick()
        assert v == (min((-acts[u], u) for u in free)[1] if free else None)
        return v

    monkeypatch.setattr(engine, "heappush", counting_push)
    s._var_bump = checked_bump
    s._pick_branch_var = checked_pick
    s._backtrack_to = checked_backtrack
    stats = s.solve().stats
    assert stats.conflicts > 0 and stats.restarts > 0
    assert (rescales > 0) == (var_inc > 1.0)


# -- clause database reduction --------------------------------------------------


def _inject_learnt(s, signed, lbd, activity):
    c = Clause([lit(n) for n in signed], lbd, activity)
    s.learnts.append(c)
    s._attach((c,))
    return c


def test_reduce_db_keeps_low_lbd_and_locked_clauses():
    s = Solver(Formula(12, []))
    keep_lbd = [
        _inject_learnt(s, [1, 2], 1, 0.0),
        _inject_learnt(s, [3, 4], 2, 0.0),
    ]
    locked = _inject_learnt(s, [5, 6], 9, 0.0)
    s._enqueue(lit(5), locked, 0)
    victims = [
        _inject_learnt(s, [7, 8], 5, 1.0),
        _inject_learnt(s, [9, 10], 6, 2.0),
        _inject_learnt(s, [11, 12], 7, 3.0),
        _inject_learnt(s, [1, 12], 8, 4.0),
    ]
    s._reduce_db()
    survivors = set(map(id, s.learnts))
    for c in keep_lbd:
        assert id(c) in survivors
    assert id(locked) in survivors
    # 4 candidates -> worst half (2) dropped: the two with highest lbd
    assert id(victims[0]) in survivors and id(victims[1]) in survivors
    assert id(victims[2]) not in survivors and id(victims[3]) not in survivors
    debug_check_watches(s)


def test_reduce_db_drops_the_stale_reason_of_an_erased_variable():
    # The learnt (x2 v ~x1) implies x2 and stays x2's reason after the
    # backtrack erases x2.  x2 is unassigned, so the clause is not locked:
    # ranked in the bottom half, it goes.
    s = Solver(Formula(4, []))
    stale = _inject_learnt(s, [2, -1], 8, 0.0)
    kept = _inject_learnt(s, [3, 4], 5, 1.0)
    s._enqueue(lit(1), None, 1)
    assert s._propagate() is None
    assert s.value[lit(2)] > 0 and s.reason[1] is stale
    s._backtrack_to(0)
    assert s.value[lit(2)] == 0 and s.reason[1] is stale
    s._reduce_db()
    assert len(s.learnts) == 1 and s.learnts[0] is kept
    debug_check_watches(s)


def test_reduce_db_breaks_lbd_ties_by_activity():
    s = Solver(Formula(6, []))
    weak = _inject_learnt(s, [1, 2], 5, 1.0)
    strong = _inject_learnt(s, [3, 4], 5, 9.0)
    filler = _inject_learnt(s, [5, 6], 4, 0.0)
    s._reduce_db()  # 3 candidates, worst 1 dropped
    survivors = set(map(id, s.learnts))
    assert id(filler) in survivors
    assert id(strong) in survivors
    assert id(weak) not in survivors


def test_cla_bump_rescales_every_learnt_activity():
    s = Solver(Formula(8, []))
    learnts = [
        _inject_learnt(s, [1, 2], 3, 5.0),
        _inject_learnt(s, [3, 4], 3, 7.0),
        _inject_learnt(s, [5, 6], 4, 2.0),
        _inject_learnt(s, [7, 8], 3, 1.0),
    ]
    ranking = sorted(learnts, key=lambda c: (c.lbd, -c.activity))
    s.cla_inc = 2 * engine.CLA_RESCALE_LIMIT
    before = [c.activity for c in learnts]
    before[3] += s.cla_inc
    s._cla_bump(learnts[3])
    assert [c.activity for c in learnts] == [
        a * engine.CLA_RESCALE_FACTOR for a in before
    ]
    assert s.cla_inc == 2 * engine.CLA_RESCALE_LIMIT * engine.CLA_RESCALE_FACTOR
    # The bump moved the last clause to the front of its LBD class, and the
    # rescale kept that order.
    ranking.remove(learnts[3])
    ranking.insert(0, learnts[3])
    assert sorted(learnts, key=lambda c: (c.lbd, -c.activity)) == ranking


def test_tiny_db_limit_same_verdict_as_default():
    f = random_ksat(30, ratio=4.3, seed=11)
    a = solve_formula(f, SolverConfig())
    b = solve_formula(f, SolverConfig(clause_db_init_limit=1))
    assert a.verdict is b.verdict is Verdict.UNSAT


# -- hybrid backtracking policy --------------------------------------------------


def test_always_chronological_mode_counts_only_cb():
    f = random_ksat(30, ratio=4.4, seed=4)
    r = solve_formula(f, SolverConfig(cb_threshold_t=0, cb_min_conflicts_c=0))
    assert r.stats.conflicts > 0
    assert r.stats.ncb_backtracks == 0
    assert r.stats.conflicts - 1 <= r.stats.cb_backtracks <= r.stats.conflicts


def test_huge_conflict_gate_disables_chronological():
    f = random_ksat(30, ratio=4.4, seed=4)
    r = solve_formula(f, SolverConfig(cb_threshold_t=0, cb_min_conflicts_c=10**9))
    assert r.stats.cb_backtracks == 0
    assert r.stats.ncb_backtracks > 0


def test_phase_heuristic_dispatch_follows_backtrack_mode():
    trace = []
    f = random_ksat(30, ratio=4.4, seed=4)
    cfg = SolverConfig(
        cb_threshold_t=0,
        cb_min_conflicts_c=0,
        ncb_phase_heuristic="saved",
        cb_phase_heuristic="false",
    )
    s = Solver(f, cfg)
    select = s.phase.select_phase

    def traced_select(var, in_cb_state):
        phase = select(var, in_cb_state)
        trace.append((var, phase, in_cb_state))
        return phase

    s.phase.select_phase = traced_select
    s.solve()
    cb_decisions = [t for t in trace if t[2]]
    assert cb_decisions, "expected decisions while in chronological state"
    assert all(phase is False for _, phase, _ in cb_decisions)


# -- correctness against the oracle ---------------------------------------------


@pytest.mark.parametrize(
    "cfg",
    [
        SolverConfig(),
        SolverConfig(cb_threshold_t=0, cb_min_conflicts_c=0),
        SolverConfig(cb_threshold_t=2, cb_min_conflicts_c=3, cb_phase_heuristic="dps"),
        SolverConfig(ncb_phase_heuristic="random", cb_phase_heuristic="lsids"),
        SolverConfig(restart_policy="glucose", ncb_phase_heuristic="opposite"),
    ],
    ids=["default", "cb-always", "cb-early-dps", "random-lsids", "glucose-opposite"],
)
def test_verdicts_agree_with_brute_force(cfg):
    rng = random.Random(20260819)
    for _ in range(60):
        n = rng.randint(3, 13)
        f = random_ksat(n, ratio=rng.uniform(2.5, 5.5), rng=rng)
        ref = brute_force_solve(f)
        got = solve_formula(f, cfg)
        assert got.verdict is ref.verdict
        if got.verdict is Verdict.SAT:
            assert check_model(f, got.model)


def random_mixed_2_3_sat(rng):
    n = rng.randint(3, 14)
    clauses = []
    for _ in range(round(rng.uniform(1.5, 4.5) * n)):
        vs = rng.sample(range(n), rng.choice((2, 3)))
        clauses.append(make_clause([make_literal(v, rng.random() < 0.5) for v in vs]))
    return Formula(n, clauses)


@pytest.mark.parametrize(
    "cfg",
    [
        SolverConfig(),
        SolverConfig(cb_threshold_t=0, cb_min_conflicts_c=0),
        SolverConfig(cb_threshold_t=1, cb_min_conflicts_c=2, cb_phase_heuristic="lsids"),
    ],
    ids=["default", "cb-always", "cb-early-lsids"],
)
def test_mixed_binary_ternary_verdicts_agree_with_brute_force(cfg):
    rng = random.Random(20261017)
    for _ in range(60):
        f = random_mixed_2_3_sat(rng)
        ref = brute_force_solve(f)
        s = Solver(f, cfg)
        got = s.solve()
        assert got.verdict is ref.verdict
        if got.verdict is Verdict.SAT:
            assert check_model(f, got.model)
            debug_check_watches(s)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(4, 11))
def test_random_instances_solve_soundly(seed, n):
    f = random_ksat(n, ratio=4.3, seed=seed)
    got = solve_formula(f, SolverConfig(cb_threshold_t=1, cb_min_conflicts_c=2))
    ref = brute_force_solve(f)
    assert got.verdict is ref.verdict


def test_pigeonhole_satisfiable_when_holes_suffice():
    f = pigeonhole(3, 3)
    r = solve_formula(f)
    assert r.verdict is Verdict.SAT
    assert check_model(f, r.model)


def test_watch_invariants_hold_after_solving():
    rng = random.Random(5)
    for _ in range(25):
        f = random_ksat(rng.randint(5, 14), ratio=rng.uniform(3.5, 5.0), rng=rng)
        s = Solver(f, SolverConfig(cb_threshold_t=0, cb_min_conflicts_c=0))
        r = s.solve()
        if r.verdict is Verdict.SAT:
            # an UNSAT end state legitimately holds a falsified clause
            debug_check_watches(s)


class QueueCheckedSolver(Solver):
    """Checks where each propagation starts, where a conflict stops it, the
    clause each conflict's analysis learns and where each backtrack starts."""

    def _propagate(self):
        check_queue_start(self)
        confl = super()._propagate()
        if confl is not None:
            check_conflict(self, confl)
        return confl

    def _backtrack_to(self, target):
        check_backtrack_start(self, target)
        super()._backtrack_to(target)

    def _analyze(self, confl, conflict_level):
        self.bumped = []
        learnt, assert_level, lbd = super()._analyze(confl, conflict_level)
        check_learnt(self, conflict_level, self.bumped, learnt, assert_level, lbd)
        return learnt, assert_level, lbd

    def _var_bump(self, v):
        self.bumped.append(v)
        super()._var_bump(v)


class CheckedSolver(QueueCheckedSolver):
    """Also checks the whole state at each conflict-free fixpoint."""

    def _propagate(self):
        confl = super()._propagate()
        if confl is None:
            check_invariants(self)
        return confl


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 10**6),
    st.integers(8, 40),
    st.sampled_from(list(PhaseHeuristic)),
    st.sampled_from(list(RestartPolicy)),
)
def test_invariants_hold_at_every_propagation_under_chronological_backtracking(
    seed, n, heuristic, policy
):
    # T=0, C=0: every conflict that jumps more than one level backtracks
    # chronologically, so trails are non-monotonic in level.  A small Luby
    # base and clause-DB limit bring restarts and reductions in too.
    f = random_ksat(n, ratio=4.3, seed=seed)
    cfg = SolverConfig(
        cb_threshold_t=0,
        cb_min_conflicts_c=0,
        ncb_phase_heuristic=heuristic,
        cb_phase_heuristic=heuristic,
        restart_policy=policy,
        luby_base=2,
        clause_db_init_limit=8,
        random_seed=seed,
    )
    CheckedSolver(f, cfg).solve()


def test_check_invariants_rejects_a_broken_state():
    s = Solver(fml(3, [[1, 2], [-1, 3]]))
    s._enqueue(lit(1), None, 1)
    assert s._propagate() is None
    check_invariants(s)
    assert s.trail == [lit(1), lit(3)]
    s.level[2] = 0
    with pytest.raises(AssertionError, match="implied at level 0"):
        check_invariants(s)
    s.level[2] = 1
    s.clauses[1].lits.reverse()
    with pytest.raises(AssertionError, match="does not hold it first"):
        check_invariants(s)
    s.clauses[1].lits.reverse()
    s.value[lit(-3)] = 0
    with pytest.raises(AssertionError, match="value"):
        check_invariants(s)
    s.value[lit(-3)] = -1
    s.trail_lim.append(2)
    with pytest.raises(AssertionError, match="trail_lim entries"):
        check_invariants(s)
    s.trail_lim.pop()
    s.level[0] = 2
    with pytest.raises(AssertionError, match="level 2 sits before"):
        check_invariants(s)
    s.level[0] = 1
    s.trail.pop()
    s.qhead -= 1
    s.value[lit(3)] = s.value[lit(-3)] = 0
    s.reason[2] = None
    with pytest.raises(AssertionError, match="missed unit"):
        check_invariants(s)
    s._enqueue(lit(-3), None, 1)
    s.qhead += 1
    with pytest.raises(AssertionError, match="missed conflict"):
        check_invariants(s)


def test_check_conflict_rejects_a_queue_head_off_the_conflict():
    s = Solver(fml(3, [[1, 2], [1, 3], [-2, -3]]))
    s._enqueue(lit(-1), None, 1)
    confl = s._propagate()
    assert confl is not None
    check_conflict(s, confl)
    # The head passed ~x1, x2 (the interrupted literal) and stopped before
    # x3; a head with no literal before it, or past ~x1 only, is off.
    assert s.trail == [lit(-1), lit(2), lit(3)] and s.qhead == 2
    for qhead in (0, 1, len(s.trail) + 1):
        s.qhead = qhead
        with pytest.raises(AssertionError, match="did not find conflict"):
            check_conflict(s, confl)


def test_check_queue_start_rejects_a_head_before_the_open_level():
    s = Solver(fml(4, [[1, 2], [-2, 3]]))
    check_queue_start(s)
    s._enqueue(lit(-1), None, 1)
    check_queue_start(s)
    assert s._propagate() is None
    s._enqueue(lit(4), None, 2)
    check_queue_start(s)
    s.qhead = 0
    with pytest.raises(AssertionError, match="before position 3, where level 2 opens"):
        check_queue_start(s)


def test_check_backtrack_start_rejects_a_head_before_the_cut():
    s = Solver(fml(4, [[1, 2], [-2, 3]]))
    s._enqueue(lit(-1), None, 1)
    assert s._propagate() is None
    s._enqueue(lit(4), None, 2)
    check_backtrack_start(s, 0)
    check_backtrack_start(s, 1)
    s.qhead = 2
    check_backtrack_start(s, 0)
    with pytest.raises(
        AssertionError,
        match="before position 3, where the backtrack to level 1 cuts the trail",
    ):
        check_backtrack_start(s, 1)


def test_analysis_drops_a_literal_whose_reason_is_inside_the_clause():
    # x1 at level 1 implies x2; deciding x3 at level 2 implies ~x4 through
    # the long clause, which falsifies (~x3 v x4).  The walk collects ~x1
    # and ~x2 below the conflict level, and ~x2 goes: its reason
    # (x2 v ~x1) lies inside the clause.
    s = QueueCheckedSolver(fml(4, [[-1, 2], [-4, -3, -1, -2], [-3, 4]]))
    s._enqueue(lit(1), None, 1)
    assert s._propagate() is None
    s._enqueue(lit(3), None, 2)
    confl = s._propagate()
    assert confl is not None
    assert s._analyze(confl, 2) == ([lit(-3), lit(-1)], 1, 2)
    assert lit(2) >> 1 in s.bumped


def test_check_learnt_rejects_a_wrong_swap():
    # ~x1 sits at level 1, ~x2 and ~x3 at level 2: the first of those two
    # must be swapped to position 1, and that alone.
    s = QueueCheckedSolver(fml(4, [[-4, -1, -2, -3]]))
    for n, lv in ((1, 1), (2, 2), (3, 2), (4, 3)):
        s._enqueue(lit(n), None, lv)
    learnt = [lit(-4), lit(-2), lit(-1), lit(-3)]
    assert s._analyze(s.clauses[0], 3) == (learnt, 2, 3)
    last_swapped = [lit(-4), lit(-3), lit(-1), lit(-2)]
    unswapped = [lit(-4), lit(-1), lit(-2), lit(-3)]
    for wrong in (last_swapped, unswapped):
        with pytest.raises(AssertionError, match="has tail"):
            check_learnt(s, 3, s.bumped, wrong, 2, 3)
    with pytest.raises(AssertionError, match="assertion level 1"):
        check_learnt(s, 3, s.bumped, learnt, 1, 3)
    with pytest.raises(AssertionError, match="lbd 2"):
        check_learnt(s, 3, s.bumped, learnt, 2, 2)
    s.seen[0] = 1
    with pytest.raises(AssertionError, match="seen"):
        check_learnt(s, 3, s.bumped, learnt, 2, 3)


# -- trail inspection -----------------------------------------------------------


def test_trail_exposes_reasons_and_decisions():
    f = fml(3, [[1], [-1, 2]])
    s = Solver(f)
    r = s.solve()
    assert r.verdict is Verdict.SAT
    trail, reason = s.trail, s.reason
    assert trail[0] == lit(1) and reason[trail[0] >> 1] is None
    assert trail[1] == lit(2) and reason[trail[1] >> 1] is not None
    assert reason[trail[1] >> 1].lits[0] == lit(2)
    decisions = [
        l for l in trail if reason[l >> 1] is None and s.level[l >> 1] > 0
    ]
    assert len(decisions) == r.stats.decisions


def test_reason_clause_leads_with_implied_literal():
    f = random_ksat(18, ratio=4.2, seed=9)
    s = Solver(f)
    r = s.solve()
    if r.verdict is Verdict.SAT:
        for l in s.trail:
            r = s.reason[l >> 1]
            if r is not None:
                assert r.lits[0] == l


# -- resource limits --------------------------------------------------------------


def test_time_limit_returns_unknown():
    f = pigeonhole(8, 7)
    r = solve_formula(f, SolverConfig(time_limit_seconds=0.05))
    assert r.verdict is Verdict.UNKNOWN
    assert r.model is None
    assert r.stats.wall_time_seconds < 5.0


def test_expired_budget_stops_the_search_before_more_work(monkeypatch):
    # Each clock read is a second after the last, so the 0.5 s budget has
    # run out by the first check; the unit clause must not be propagated.
    clock = itertools.count(1000.0, 1.0)
    monkeypatch.setattr(engine.time, "monotonic", lambda: next(clock))
    f = fml(3, [[1], [-1, 2], [2, 3]])
    r = solve_formula(f, SolverConfig(time_limit_seconds=0.5))
    assert r.verdict is Verdict.UNKNOWN
    assert r.stats.propagations == 0


def test_non_positive_time_limit_is_rejected():
    with pytest.raises(ValueError):
        SolverConfig(time_limit_seconds=0.0)
    r = solve_formula(
        random_ksat(30, ratio=4.3, seed=0), SolverConfig(time_limit_seconds=1e-9)
    )
    assert r.verdict is Verdict.UNKNOWN


# -- resuming and solving again --------------------------------------------------


class StepClock:
    """A stand-in for time.monotonic that advances one second per read.

    solve() reads the clock once before its search and once after it, and
    the search reads it once before each step, so a time limit of k + 0.5
    seconds lets one call take exactly k steps."""

    def __init__(self):
        self.reads = 0

    def __call__(self):
        self.reads += 1
        return float(self.reads)


def counters(result):
    return tuple(value for _, value in result.stats.counter_items())


def search_steps(result):
    """Steps the search took: one per conflict, restart and decision, and
    for SAT the last one, which finds no variable left to decide."""
    stats = result.stats
    return (
        stats.conflicts
        + stats.restarts
        + stats.decisions
        + (result.verdict is Verdict.SAT)
    )


def check_resume(monkeypatch, f, kwargs, k, full):
    """Stop a solve of f after k steps, then solve again with a clock that
    never moves: verdict, model and counters must equal full, the result of
    one uninterrupted solve."""
    s = Solver(f, SolverConfig(time_limit_seconds=k + 0.5, **kwargs))
    monkeypatch.setattr(engine.time, "monotonic", StepClock())
    first = s.solve()
    assert first.verdict is Verdict.UNKNOWN and first.model is None
    assert search_steps(first) == k
    monkeypatch.setattr(engine.time, "monotonic", lambda: 0.0)
    again = s.solve()
    assert again.verdict is full.verdict
    assert again.model == full.model
    assert counters(again) == counters(full), k


@pytest.mark.parametrize("restart", ["luby", "glucose"])
@pytest.mark.parametrize("t", [0, 5])
@pytest.mark.parametrize(
    "ncb, cb",
    [("saved", "lsids"), ("dps", "random"), ("saved", "dps")],
    ids=["saved-lsids", "dps-random", "saved-dps"],
)
def test_stopped_search_resumes_to_the_uninterrupted_result(
    monkeypatch, ncb, cb, t, restart
):
    # C=0 lets CB fire from the first conflict, luby_base=4 brings Luby
    # restarts in and a learnt database of 40 makes _reduce_db fire on most
    # of these formulas.
    kwargs = dict(
        cb_threshold_t=t,
        cb_min_conflicts_c=0,
        ncb_phase_heuristic=ncb,
        cb_phase_heuristic=cb,
        restart_policy=restart,
        luby_base=4,
        clause_db_init_limit=40,
    )
    for seed in (1, 2, 3):
        f = random_ksat(70, ratio=4.26, seed=seed)
        kwargs["random_seed"] = seed
        full = solve_formula(f, SolverConfig(**kwargs))
        steps = search_steps(full)
        rng = random.Random(f"{seed}-{ncb}-{cb}-{t}-{restart}")
        for k in (rng.randrange(1, steps), rng.randrange(1, steps), steps - 1):
            check_resume(monkeypatch, f, kwargs, k, full)


def test_stopped_glucose_search_resumes_across_its_restarts(monkeypatch):
    # A glucose restart needs a full window of 50 conflicts and seldom
    # fires on the random formulas above; this formula restarts (see
    # GLUCOSE_COUNTERS), so the window must survive each stop.
    f = pigeonhole(7, 6)
    full = solve_formula(f, SolverConfig(restart_policy="glucose"))
    assert full.stats.restarts > 0
    steps = search_steps(full)
    for k in (steps // 4, steps // 2, 3 * steps // 4):
        check_resume(monkeypatch, f, {"restart_policy": "glucose"}, k, full)


@pytest.mark.parametrize(
    "make_formula, cfg_kwargs, verdict",
    [
        (lambda: pigeonhole(5, 4), {}, Verdict.UNSAT),
        (
            lambda: random_ksat(50, ratio=4.26, seed=1),
            {"cb_threshold_t": 0, "cb_min_conflicts_c": 0},
            Verdict.UNSAT,
        ),
        (lambda: Formula(2, [(0, 2), ()]), {}, Verdict.UNSAT),
        (
            lambda: random_ksat(50, ratio=4.26, seed=4),
            {"cb_threshold_t": 0, "cb_min_conflicts_c": 0},
            Verdict.SAT,
        ),
    ],
    ids=["php5-4", "ksat50-unsat-T0-C0", "empty-clause", "ksat50-sat-T0-C0"],
)
def test_solving_again_after_a_verdict_repeats_it(make_formula, cfg_kwargs, verdict):
    # ok is the one record of a proven UNSAT: a conflict at level 0 sets it,
    # so a second call neither rescans nor counts that conflict again.
    s = Solver(make_formula(), SolverConfig(**cfg_kwargs))
    first = s.solve()
    assert first.verdict is verdict
    expected = (first.verdict, first.model, counters(first))
    again = s.solve()
    assert (again.verdict, again.model, counters(again)) == expected
    assert s.ok is (verdict is Verdict.SAT)


def test_resumed_solve_reports_the_time_of_all_its_calls(monkeypatch):
    # A call's time is its last clock read less its first, so under a
    # StepClock it is the call's reads less one.
    s = Solver(pigeonhole(6, 5), SolverConfig(time_limit_seconds=20.5))
    total = 0.0
    for _ in range(3):
        clock = StepClock()
        monkeypatch.setattr(engine.time, "monotonic", clock)
        r = s.solve()
        assert r.verdict is Verdict.UNKNOWN
        total += clock.reads - 1
        assert r.stats.wall_time_seconds == total
    monkeypatch.setattr(engine.time, "monotonic", lambda: 0.0)
    r = s.solve()
    assert r.verdict is Verdict.UNSAT
    assert r.stats.wall_time_seconds == total == 3 * 22


def test_each_result_of_a_resumed_solve_keeps_its_own_counters(monkeypatch):
    # Each call returns a copy: solving again must not change a result
    # already returned, while the solver's own record goes on counting.
    s = Solver(pigeonhole(6, 5), SolverConfig(time_limit_seconds=20.5))
    kept = []
    for _ in range(3):
        monkeypatch.setattr(engine.time, "monotonic", StepClock())
        r = s.solve()
        assert r.verdict is Verdict.UNKNOWN
        kept.append((r, counters(r), r.stats.wall_time_seconds))
    monkeypatch.setattr(engine.time, "monotonic", lambda: 0.0)
    last = s.solve()
    assert last.verdict is Verdict.UNSAT
    assert last.stats is not s.stats
    assert last.stats.counter_items() == s.stats.counter_items()
    for r, held, wall in kept:
        assert (counters(r), r.stats.wall_time_seconds) == (held, wall)
    # Each stopped call took 20 steps, so the kept results all differ.
    assert len({held for _, held, _ in kept}) == 3


# -- determinism ------------------------------------------------------------------


def test_identical_runs_produce_identical_counters():
    f = random_ksat(40, ratio=4.26, seed=42)
    cfg = SolverConfig(ncb_phase_heuristic="random", random_seed=3)
    a = solve_formula(f, cfg)
    b = solve_formula(f, cfg)
    assert a.verdict is b.verdict
    assert a.stats.counter_items() == b.stats.counter_items()


def test_formula_reuse_does_not_perturb_results():
    f = random_ksat(30, ratio=4.3, seed=8)
    first = solve_formula(f, SolverConfig())
    # a different configuration mutates nothing visible to later solves
    solve_formula(f, SolverConfig(cb_threshold_t=0, cb_min_conflicts_c=0))
    again = solve_formula(f, SolverConfig())
    assert first.verdict is again.verdict
    assert first.stats.counter_items() == again.stats.counter_items()


# -- decisions made in CB state ------------------------------------------------------


@pytest.mark.parametrize(
    "cfg",
    [
        SolverConfig(),
        SolverConfig(cb_threshold_t=0, cb_min_conflicts_c=0),
        SolverConfig(cb_threshold_t=5, cb_min_conflicts_c=0, cb_phase_heuristic="random"),
        SolverConfig(
            cb_threshold_t=0, cb_min_conflicts_c=30, ncb_phase_heuristic="dps",
            cb_phase_heuristic="saved",
        ),
    ],
    ids=["default", "T0-C0", "T5-C0-random", "T0-C30-dps"],
)
def test_cb_state_decisions_counts_select_phase_calls_in_cb_state(monkeypatch, cfg):
    in_cb_state = []
    original = PhaseSelector.select_phase

    def recording(self, var, cb_state):
        in_cb_state.append(cb_state)
        return original(self, var, cb_state)

    monkeypatch.setattr(PhaseSelector, "select_phase", recording)
    r = solve_formula(random_ksat(60, ratio=4.26, seed=4), cfg)
    assert len(in_cb_state) == r.stats.decisions
    assert r.stats.cb_state_decisions == sum(in_cb_state)
    if cfg.cb_threshold_t == 0:
        assert r.stats.cb_backtracks > 0 and r.stats.cb_state_decisions > 0


def test_the_engine_counts_cb_state_decisions_under_a_selector_that_does_not():
    s = Solver(random_ksat(60, ratio=4.26, seed=4),
               SolverConfig(cb_threshold_t=0, cb_min_conflicts_c=0))
    in_cb_state = []

    def saved_phase(var, cb_state):
        in_cb_state.append(cb_state)
        return s.phase.saved[var]

    s.phase.select_phase = saved_phase
    stats = s.solve().stats
    assert len(in_cb_state) == stats.decisions
    assert stats.cb_state_decisions == sum(in_cb_state) > 0


def test_pack50_makes_no_cb_state_decision_under_either_preset(pack_dir):
    for path in sorted(glob.glob(os.path.join(pack_dir, "*.cnf")))[::10]:
        formula = parse_dimacs_file(path)[0]
        for preset in PRESETS.values():
            stats = solve_formula(formula, SolverConfig(**preset)).stats
            assert stats.cb_backtracks == stats.cb_state_decisions == 0, path


# Exact counters of five short solves.  A hot-path change that claims "same
# search" must leave every one of them as it is.  T=0 backtracks chronologically on every
# conflict, T=5 never does on these formulas; the last run keeps a learnt
# database of 50 so that _reduce_db fires twice.
PINNED_COUNTERS = [
    ((2, 0, 2000), (510, 728, 12046, 45, 509, 0, 378, 135)),
    ((2, 5, 2000), (372, 575, 9095, 36, 0, 371, 0, 0)),
    ((3, 0, 2000), (234, 400, 5787, 27, 234, 0, 182, 74)),
    ((3, 5, 2000), (223, 418, 5692, 27, 0, 223, 0, 0)),
    ((2, 0, 50), (535, 797, 13102, 51, 534, 0, 384, 141)),
]


# Exact counters of the phase and restart configurations whose state the
# solver keeps only when configured: saved/saved (mldc-like) keeps neither
# DPS nor LSIDS state, cb=dps keeps DPS only, ncb=dps with cb=lsids keeps
# both, cb=random neither.  All run at T=0, C=0, so every conflict
# backtracks chronologically and the cb heuristic decides.  The glucose run
# never restarts on this formula; it pins that path's counters all the same.
GATED_COUNTERS = [
    ((2, "saved", "saved", "luby"), (571, 873, 14120, 59, 570, 0, 0, 0)),
    ((2, "saved", "dps", "luby"), (516, 769, 12230, 51, 515, 0, 0, 0)),
    ((2, "dps", "lsids", "luby"), (642, 952, 15088, 61, 641, 0, 494, 168)),
    ((2, "saved", "random", "luby"), (431, 635, 10764, 42, 430, 0, 0, 0)),
    ((2, "saved", "lsids", "glucose"), (695, 731, 16120, 0, 694, 0, 716, 318)),
    ((3, "saved", "saved", "luby"), (132, 255, 3151, 14, 132, 0, 0, 0)),
    ((3, "saved", "dps", "luby"), (195, 328, 5052, 22, 195, 0, 0, 0)),
    ((3, "dps", "lsids", "luby"), (144, 241, 3674, 16, 144, 0, 126, 45)),
    ((3, "saved", "random", "luby"), (368, 561, 8591, 33, 368, 0, 0, 0)),
]


# Exact counters of two glucose solves that do restart (the glucose row of
# GATED_COUNTERS never does), so the timing of the LBD restart rule is
# pinned too.  Values were computed before the rule moved to the conflict
# step.
GLUCOSE_COUNTERS = [
    ("php7-6", lambda: pigeonhole(7, 6), {}, (763, 913, 9324, 4, 0, 762, 0, 0)),
    (
        "ksat150-T0-C0",
        lambda: random_ksat(150, ratio=4.26, seed=1),
        {"cb_threshold_t": 0, "cb_min_conflicts_c": 0},
        (936, 1013, 28462, 1, 936, 0, 985, 417),
    ),
]


def pinned_runs(tagged):
    """Every row of PINNED_COUNTERS, GATED_COUNTERS and GLUCOSE_COUNTERS as
    pytest.param(formula factory, config, counters).  The id names the row;
    tagged prefixes it with the row's table: pinned, gated or glucose."""

    def run(table, name, make_formula, cfg, expected):
        return pytest.param(
            make_formula, cfg, expected, id=f"{table}-{name}" if tagged else name
        )

    for (seed, t, db_limit), expected in PINNED_COUNTERS:
        cfg = SolverConfig(
            cb_threshold_t=t,
            cb_min_conflicts_c=0,
            luby_base=4,
            clause_db_init_limit=db_limit,
        )
        make_formula = functools.partial(random_ksat, 100, ratio=4.26, seed=seed)
        yield run("pinned", f"seed{seed}-T{t}-db{db_limit}", make_formula, cfg, expected)
    for (seed, ncb, cb, restart), expected in GATED_COUNTERS:
        cfg = SolverConfig(
            cb_threshold_t=0,
            cb_min_conflicts_c=0,
            ncb_phase_heuristic=ncb,
            cb_phase_heuristic=cb,
            restart_policy=restart,
            luby_base=4,
        )
        make_formula = functools.partial(random_ksat, 100, ratio=4.26, seed=seed)
        yield run("gated", f"seed{seed}-{ncb}-{cb}-{restart}", make_formula, cfg, expected)
    for name, make_formula, cfg_kwargs, expected in GLUCOSE_COUNTERS:
        cfg = SolverConfig(restart_policy="glucose", **cfg_kwargs)
        yield run("glucose", name, make_formula, cfg, expected)


@pytest.mark.parametrize("make_formula, cfg, expected", pinned_runs(tagged=False))
def test_counters_are_pinned(make_formula, cfg, expected):
    assert counters(solve_formula(make_formula(), cfg)) == expected


@pytest.mark.parametrize("make_formula, cfg, expected", pinned_runs(tagged=True))
def test_one_queue_rewind_suffices_on_every_pinned_run(make_formula, cfg, expected):
    # _propagate leaves the head past the literal a conflict interrupts and
    # only _backtrack_to moves it back.  That suffices because propagation
    # starts at or after trail_lim[-1], and _backtrack_to may set the head
    # to its cut unconditionally because every backtrack starts with the
    # head at or past it; QueueCheckedSolver asserts both, and the counters
    # stay pinned.
    r = QueueCheckedSolver(make_formula(), cfg).solve()
    assert counters(r) == expected
