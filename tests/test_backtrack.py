import copy

import pytest
from hypothesis import assume, given, strategies as st

import chronosat.engine as engine_module
from chronosat.engine import Solver, choose_backtrack_level
from chronosat.gen import random_ksat
from chronosat.model import Formula, SolverConfig, make_literal


def test_large_jump_past_threshold_goes_chronological():
    cfg = SolverConfig(cb_threshold_t=100, cb_min_conflicts_c=4000)
    target, is_cb = choose_backtrack_level(150, 10, conflicts_before=5000, config=cfg)
    assert is_cb
    assert target == 149


def test_warmup_rule_supersedes_threshold():
    cfg = SolverConfig(cb_threshold_t=100, cb_min_conflicts_c=4000)
    target, is_cb = choose_backtrack_level(150, 10, conflicts_before=100, config=cfg)
    assert not is_cb
    assert target == 10


def test_small_jump_stays_non_chronological():
    cfg = SolverConfig(cb_threshold_t=100, cb_min_conflicts_c=4000)
    target, is_cb = choose_backtrack_level(50, 40, conflicts_before=5000, config=cfg)
    assert not is_cb
    assert target == 40


def test_jump_equal_to_threshold_is_not_chronological():
    cfg = SolverConfig(cb_threshold_t=10, cb_min_conflicts_c=0)
    _, is_cb = choose_backtrack_level(20, 10, conflicts_before=99, config=cfg)
    assert not is_cb


def test_zero_thresholds_make_every_conflict_chronological():
    cfg = SolverConfig(cb_threshold_t=0, cb_min_conflicts_c=0)
    for current, analysis in [(1, 0), (5, 4), (9, 2), (300, 0)]:
        target, is_cb = choose_backtrack_level(
            current, analysis, conflicts_before=0, config=cfg
        )
        assert is_cb
        assert target == current - 1


def test_invalid_levels_rejected():
    cfg = SolverConfig()
    with pytest.raises(ValueError):
        choose_backtrack_level(5, 5, conflicts_before=0, config=cfg)
    with pytest.raises(ValueError):
        choose_backtrack_level(0, 0, conflicts_before=0, config=cfg)
    with pytest.raises(ValueError):
        choose_backtrack_level(5, -1, conflicts_before=0, config=cfg)


@given(
    st.integers(min_value=1, max_value=500),
    st.integers(min_value=0, max_value=499),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=200),
    st.integers(min_value=0, max_value=10**5),
)
def test_policy_has_exactly_two_behaviors(current, analysis, conflicts, t, c):
    if analysis >= current:
        analysis = current - 1
    cfg = SolverConfig(cb_threshold_t=t, cb_min_conflicts_c=c)
    target, is_cb = choose_backtrack_level(current, analysis, conflicts, cfg)
    if is_cb:
        assert target == current - 1
        assert conflicts >= c
        assert current - analysis > t
    else:
        assert target == analysis


def test_mode_tracks_last_backtrack_kind(monkeypatch):
    """Every decision sees in_cb_state equal to the kind of the latest
    backtrack, with a restart counting as a non-chronological one."""
    latest = [False]
    real_choose = engine_module.choose_backtrack_level

    def recording_choose(*args):
        target, is_cb = real_choose(*args)
        latest[0] = is_cb
        return target, is_cb

    monkeypatch.setattr(engine_module, "choose_backtrack_level", recording_choose)
    # A short Luby unit makes each seed restart at least once in CB state.
    cfg = SolverConfig(cb_threshold_t=1, cb_min_conflicts_c=0, luby_base=4)
    for seed in (4, 5, 6):
        latest[0] = False
        s = Solver(random_ksat(60, ratio=4.3, seed=seed), cfg)
        real_restart = s._restart
        real_select = s.phase.select_phase
        flags = []
        restarts_in_cb = []

        def restart():
            restarts_in_cb.append(latest[0])
            real_restart()
            latest[0] = False

        def select(var, in_cb_state):
            flags.append((in_cb_state, latest[0]))
            return real_select(var, in_cb_state)

        s._restart = restart
        s.phase.select_phase = select
        s.solve()
        assert all(seen == expected for seen, expected in flags), seed
        assert {seen for seen, _ in flags} == {False, True}, seed
        assert any(restarts_in_cb), seed


def _solver_with_trail(levels, polarities):
    """Solver over one variable per entry, var k assigned at levels[k]."""
    s = Solver(Formula(len(levels), []))
    for var, (lvl, pol) in enumerate(zip(levels, polarities)):
        s._enqueue(make_literal(var, pol), None, lvl)
    s.qhead = len(s.trail)
    return s


@pytest.mark.parametrize(
    "levels, target, kept",
    [
        ([1, 1, 2, 3], 1, [0, 1]),
        # Backtracking to 2 removes both level-3 entries, including the one
        # sitting before the level-2 entry.
        ([1, 3, 2, 3], 2, [0, 2]),
        ([0, 0, 1, 2], 0, [0, 1]),
    ],
    ids=["monotonic", "non-monotonic", "to-zero"],
)
def test_backtrack_to_removes_levels_above_target(levels, target, kept):
    s = _solver_with_trail(levels, [True] * len(levels))
    s._backtrack_to(target)
    assert s.trail == [make_literal(v, True) for v in kept]
    assert s.decision_level == target


@given(
    st.lists(st.tuples(st.integers(0, 8), st.booleans()), max_size=30),
    st.data(),
)
def test_backtrack_to_is_exact_and_order_preserving(entries, data):
    levels = [lvl for lvl, _ in entries]
    polarities = [pol for _, pol in entries]
    assume(max(levels, default=0) > 0)
    # The engine only backtracks below the top open level.
    target = data.draw(st.integers(0, max(levels) - 1), label="target")
    s = _solver_with_trail(levels, polarities)
    trail_before = list(s.trail)
    erased = []
    s.phase.on_assignments_erased = lambda lits: erased.extend(
        (lit >> 1, (lit & 1) == 0) for lit in lits
    )

    s._backtrack_to(target)

    kept = [lit for lit in trail_before if levels[lit >> 1] <= target]
    removed = [lit for lit in trail_before if levels[lit >> 1] > target]
    assert s.trail == kept
    for lit in kept:
        assert s.value[lit] > 0 and s.value[lit ^ 1] < 0
    for lit in removed:
        assert s.value[lit] == 0 and s.value[lit ^ 1] == 0
    assert erased == [(lit >> 1, (lit & 1) == 0) for lit in removed]
    first_removed = next(
        (pos for pos, lvl in enumerate(levels) if lvl > target), len(levels)
    )
    assert s.qhead == first_removed
    assert s.decision_level == target


@pytest.mark.parametrize("target", [-1, 2, 3], ids=["negative", "top", "above-top"])
def test_backtrack_to_rejects_a_target_outside_the_open_levels(target):
    """A target must be an open level below the top one, here 0 or 1: -1,
    the top level 2 and 3 raise ValueError and leave the state as it was."""
    s = _solver_with_trail([1, 2, 1, 2], [True, False, False, True])
    s.qhead = 3
    before = copy.deepcopy((s.trail, s.trail_lim, s.decision_level, s.qhead, s.value))
    with pytest.raises(ValueError):
        s._backtrack_to(target)
    assert (s.trail, s.trail_lim, s.decision_level, s.qhead, s.value) == before


@pytest.mark.parametrize("seed", [2, 3])
@pytest.mark.parametrize("t", [0, 1, 5])
def test_trail_lim_marks_each_level_on_real_solves(seed, t):
    """Before every backtrack of a real search, trail_lim holds one entry
    per open level, each pointing at that level's decision, and nothing
    before it sits above the previous level."""
    cfg = SolverConfig(cb_threshold_t=t, cb_min_conflicts_c=0, luby_base=4)
    s = Solver(random_ksat(100, ratio=4.26, seed=seed), cfg)
    real_backtrack = s._backtrack_to
    calls = []

    def backtrack(target):
        calls.append(target)
        trail, lim, level = s.trail, s.trail_lim, s.level
        assert len(lim) == s.decision_level
        for k, pos in enumerate(lim):
            assert s.reason[trail[pos] >> 1] is None
            assert level[trail[pos] >> 1] == k + 1
            assert all(level[lit >> 1] <= k for lit in trail[:pos])
        real_backtrack(target)

    s._backtrack_to = backtrack
    s.solve()
    assert calls
    if t == 0:
        assert s.stats.cb_backtracks > 0
    else:
        assert s.stats.ncb_backtracks > 0
    assert s.stats.restarts > 0
