import random

import pytest
from hypothesis import given, settings, strategies as st

from chronosat.model import PhaseHeuristic, SolverConfig, SolverStats
from chronosat.phase import (
    LSIDS_DECAY_FACTOR,
    LSIDS_LEARNT_MULT,
    LSIDS_RESCORE_FACTOR,
    LSIDS_RESCORE_LIMIT,
    PhaseSelector,
)


def selector(n_vars=4, **cfg_kwargs):
    cfg = SolverConfig(**cfg_kwargs)
    stats = SolverStats()
    return PhaseSelector(n_vars, cfg, stats), stats


def test_saved_phase_defaults_false_and_tracks_erasures():
    sel, _ = selector(ncb_phase_heuristic="saved")
    assert sel.select_phase(0, in_cb_state=False) is False
    sel.on_assignment_erased(0, True)
    assert sel.select_phase(0, in_cb_state=False) is True
    sel.on_assignment_erased(0, False)
    assert sel.select_phase(0, in_cb_state=False) is False


def test_opposite_saved_inverts():
    sel, _ = selector(ncb_phase_heuristic="opposite")
    assert sel.select_phase(1, in_cb_state=False) is True
    sel.on_assignment_erased(1, True)
    assert sel.select_phase(1, in_cb_state=False) is False


def test_always_false():
    sel, _ = selector(ncb_phase_heuristic="false")
    sel.on_assignment_erased(2, True)
    assert sel.select_phase(2, in_cb_state=False) is False


def test_random_phase_deterministic_per_seed():
    a, _ = selector(ncb_phase_heuristic="random", random_seed=11)
    b, _ = selector(ncb_phase_heuristic="random", random_seed=11)
    seq_a = [a.select_phase(0, False) for _ in range(64)]
    seq_b = [b.select_phase(0, False) for _ in range(64)]
    assert seq_a == seq_b
    assert True in seq_a and False in seq_a


def test_dps_sequence_hand_computed():
    # decay 0.7, scores start at 0: erase True -> 1.0; then erase False ->
    # -1 + 0.7*1.0 = -0.3; then erase True -> 1 + 0.7*(-0.3) = 0.79.
    sel, _ = selector(ncb_phase_heuristic="dps", dps_decay=0.7)
    sel.on_assignment_erased(0, True)
    assert sel.dps[0] == pytest.approx(1.0, abs=1e-12)
    sel.on_assignment_erased(0, False)
    assert sel.dps[0] == pytest.approx(-0.3, abs=1e-12)
    sel.on_assignment_erased(0, True)
    assert sel.dps[0] == pytest.approx(0.79, abs=1e-12)
    assert sel.select_phase(0, in_cb_state=False) is True


def test_dps_zero_score_picks_negative():
    sel, _ = selector(ncb_phase_heuristic="dps")
    assert sel.dps[0] == 0.0
    assert sel.select_phase(0, in_cb_state=False) is False


@settings(deadline=None, max_examples=100)
@given(
    st.lists(st.booleans(), min_size=1, max_size=50),
    st.floats(min_value=0.05, max_value=0.5),
)
def test_dps_with_low_decay_equals_saved_phase(history, decay):
    # With decay <= 0.5 the latest erased polarity dominates the score, so
    # DPS and plain phase saving choose identically.
    sel, _ = selector(ncb_phase_heuristic="dps", dps_decay=decay)
    for polarity in history:
        sel.on_assignment_erased(0, polarity)
    assert sel.select_phase(0, in_cb_state=False) is sel.saved[0]


@settings(deadline=None, max_examples=80)
@given(st.lists(st.booleans(), min_size=0, max_size=200))
def test_dps_score_stays_inside_geometric_bound(history):
    decay = 0.7
    sel, _ = selector(ncb_phase_heuristic="dps", dps_decay=decay)
    bound = 1.0 / (1.0 - decay)
    for polarity in history:
        sel.on_assignment_erased(0, polarity)
        assert abs(sel.dps[0]) <= bound + 1e-9


def test_lsids_erase_bump_is_double_weight():
    sel, _ = selector()
    sel.on_assignment_erased(0, True)
    assert sel.lsids_activity[0] == pytest.approx(2.0)  # inc 1.0 * mult 2
    assert sel.lsids_activity[1] == 0.0


def test_lsids_learnt_bump_is_half_weight_then_decays():
    sel, _ = selector(n_vars=2)
    sel.on_clause_learnt([0, 3])  # v0 positive, v1 negative
    assert sel.lsids_activity[0] == pytest.approx(0.5)
    assert sel.lsids_activity[3] == pytest.approx(0.5)
    assert sel.lsids_inc == pytest.approx(1.0 / 0.95)
    # second learnt clause bumps with the grown increment
    sel.on_clause_learnt([0])
    assert sel.lsids_activity[0] == pytest.approx(0.5 + 0.5 * (1.0 / 0.95))


def test_lsids_rescore_triggers_past_limit():
    sel, _ = selector()
    sel.lsids_activity[0] = 2e100
    sel.lsids_activity[1] = 1e50
    sel.lsids_inc = 1e99
    sel.lsids_rescore()
    assert sel.lsids_activity[0] == pytest.approx(2.0)
    assert sel.lsids_activity[1] == pytest.approx(1e-50)
    assert sel.lsids_inc == pytest.approx(0.1)


def test_lsids_bump_auto_rescores():
    sel, _ = selector()
    sel.lsids_activity[0] = 0.9e100
    sel.lsids_inc = 0.2e100
    sel.lsids_bump([0], 2.0)  # 0.9e100 + 0.4e100 = 1.3e100 > limit
    assert sel.lsids_activity[0] == pytest.approx(1.3)
    assert sel.lsids_inc == pytest.approx(0.2 * LSIDS_RESCORE_FACTOR * 1e100)


def test_learnt_bump_equals_one_bump_per_literal():
    # The second literal's bump passes the limit, so the rescore fires in
    # the middle of the learnt clause and the third literal must be bumped
    # with the rescored increment.
    sel, _ = selector(n_vars=3, cb_phase_heuristic="lsids")
    start = [1.5, 0.0, 0.0, LSIDS_RESCORE_LIMIT * 0.99, 7.0, 0.0]
    sel.lsids_activity[:] = start
    sel.lsids_inc = LSIDS_RESCORE_LIMIT * 0.04
    clause = [0, 3, 4]

    acts, inc = list(start), sel.lsids_inc
    for lit in clause:
        acts[lit] += inc * LSIDS_LEARNT_MULT
        if acts[lit] > LSIDS_RESCORE_LIMIT:
            acts = [a * LSIDS_RESCORE_FACTOR for a in acts]
            inc *= LSIDS_RESCORE_FACTOR
    inc *= LSIDS_DECAY_FACTOR

    sel.on_clause_learnt(clause)
    assert inc < 1.0  # the rescore fired
    assert sel.lsids_activity == acts
    assert sel.lsids_inc == inc


def test_batched_erase_equals_one_call_per_literal():
    # A batch comes in trail order a, b, c (a: var 0 True, b: var 1 False,
    # c: var 2 True) and equals single calls newest first: c, b, a.  b's
    # bump pushes its activity past the limit, so the rescore fires in the
    # middle of the batch and a must be bumped with the rescored increment.
    # Bumping before or after the rescore rounds differently here, so single
    # calls in trail order give other activities.
    a, b, c = 0, 3, 4
    sels = [
        selector(n_vars=3, ncb_phase_heuristic="dps", cb_phase_heuristic="lsids")[0]
        for _ in range(3)
    ]
    for sel in sels:
        sel.dps[:] = [0.25, -0.5, 0.125]
        sel.lsids_activity[:] = [1.5e98, 0.0, 0.0, LSIDS_RESCORE_LIMIT * 0.99, 5e97, 0.0]
        sel.lsids_inc = LSIDS_RESCORE_LIMIT * 0.01
    batched, single, trail_order = sels
    batched.on_assignments_erased([a, b, c])
    for lit in (c, b, a):
        single.on_assignment_erased(lit >> 1, (lit & 1) == 0)
    for lit in (a, b, c):
        trail_order.on_assignment_erased(lit >> 1, (lit & 1) == 0)
    assert single.lsids_inc < 1.0  # the rescore fired
    assert batched.saved == single.saved == [True, False, True]
    assert batched.dps == single.dps
    assert batched.lsids_activity == single.lsids_activity
    assert batched.lsids_inc == single.lsids_inc
    assert trail_order.lsids_activity != batched.lsids_activity


def test_lsids_phase_strict_comparison_ties_pick_negative():
    sel, stats = selector(cb_phase_heuristic="lsids")
    assert sel.select_phase(0, in_cb_state=True) is False  # 0.0 vs 0.0
    sel.lsids_activity[0] = 3.0
    sel.lsids_activity[1] = 3.0
    assert sel.select_phase(0, in_cb_state=True) is False
    sel.lsids_activity[0] = 3.5
    assert sel.select_phase(0, in_cb_state=True) is True
    assert stats.lsids_decisions == 3


def test_lsids_stats_count_only_lsids_decisions():
    sel, stats = selector(ncb_phase_heuristic="saved", cb_phase_heuristic="lsids")
    sel.select_phase(0, in_cb_state=False)  # saved path
    assert stats.lsids_decisions == 0
    sel.lsids_activity[0] = 1.0  # differs from saved False
    sel.select_phase(0, in_cb_state=True)
    assert stats.lsids_decisions == 1
    assert stats.lsids_differs_from_saved == 1
    sel.lsids_activity[0] = 0.0
    sel.select_phase(0, in_cb_state=True)  # agrees with saved now
    assert stats.lsids_decisions == 2
    assert stats.lsids_differs_from_saved == 1


def test_dispatch_uses_mode_specific_heuristic():
    sel, _ = selector(ncb_phase_heuristic="saved", cb_phase_heuristic="false")
    sel.on_assignment_erased(0, True)
    assert sel.select_phase(0, in_cb_state=False) is True
    assert sel.select_phase(0, in_cb_state=True) is False


def test_erasing_a_negative_variable_is_rejected():
    sel, _ = selector(n_vars=3, ncb_phase_heuristic="dps", cb_phase_heuristic="lsids")
    with pytest.raises(ValueError):
        sel.on_assignment_erased(-1, True)
    assert sel.saved == [False, False, False]
    assert sel.dps == [0.0, 0.0, 0.0]
    assert sel.lsids_activity == [0.0] * 6


def test_state_kept_only_for_configured_heuristics():
    # Saved phases are always kept (lsids_differs_saved reads them); DPS and
    # LSIDS state exist only when a configured heuristic reads them.
    sel, _ = selector(ncb_phase_heuristic="saved", cb_phase_heuristic="saved")
    assert sel.dps is None and sel.lsids_activity is None
    sel.on_assignment_erased(0, True)
    sel.on_clause_learnt([0, 2])
    assert sel.saved[0] is True
    assert sel.dps is None and sel.lsids_activity is None

    sel, _ = selector(ncb_phase_heuristic="saved", cb_phase_heuristic="lsids")
    assert sel.dps is None
    sel.on_assignment_erased(0, True)
    sel.on_clause_learnt([0, 2])
    assert sel.saved[0] is True
    assert sel.lsids_activity[0] == pytest.approx(2.5)
    assert sel.lsids_activity[2] == pytest.approx(0.5)
    assert sel.lsids_inc > 1.0
    assert sel.dps is None


@pytest.mark.parametrize("heuristic", ["saved", "lsids", "dps", "opposite", "false"])
def test_rng_kept_only_for_the_random_heuristic(heuristic):
    sel, _ = selector(ncb_phase_heuristic=heuristic, cb_phase_heuristic=heuristic)
    assert sel.rng is None


@pytest.mark.parametrize("slot", ["ncb_phase_heuristic", "cb_phase_heuristic"])
def test_rng_draws_follow_the_seed_in_either_slot(slot):
    sel, _ = selector(**{slot: "random"}, random_seed=11)
    reference = random.Random(11)
    assert [sel.rng.random() for _ in range(5)] == [reference.random() for _ in range(5)]
