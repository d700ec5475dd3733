"""Phase selection: which polarity a fresh decision variable receives.

Six heuristics are available.  Two keep their own score state:

* DPS keeps one decayed polarity score per variable.  Every time an
  assignment is erased, dps[v] = pol + decay * dps[v] with pol = +1 for an
  erased True and -1 for an erased False; the heuristic picks positive
  exactly when the score is positive (a zero score picks negative).

* LSIDS keeps one activity per literal, bumped additively by a growing
  increment: erasing an assignment bumps the erased literal at double
  weight, and every learnt clause bumps each of its literals at half
  weight, after which the increment is decayed once (multiplied by
  1/0.95).  When any activity passes 1e100 all activities and the
  increment are rescored by 1e-100.  The heuristic picks positive exactly
  when the positive literal's activity strictly exceeds the negative's.

Saved phases are kept on every erase under every configuration, because
the lsids_differs_saved counter compares LSIDS choices against them.  DPS
scores exist only when the ncb or cb heuristic is DPS, LSIDS activities
only when one of them is LSIDS, and the decision RNG, seeded from
random_seed, only when one of them is random; otherwise those fields are
None and no erase, learnt clause or decision touches them.  A configured
heuristic's state is updated whichever heuristic is currently dispatched,
so switching mid-search (the backtrack-mode dispatch) always sees warm
scores.  The engine hands over the erased literals of a backtrack in one
batch, in trail order.  Saved phases and DPS scores are per variable, and
a variable is erased at most once per batch, so their updates ignore the
order; LSIDS bumps the batch newest first, exactly as one call per literal
in reverse trail order would.  One LSIDS bump loop serves both erased
literals and learnt clauses; a rescore in the middle of a batch shrinks the
increment for the literals after it, so the bump order counts.
"""

from __future__ import annotations

import random
from dataclasses import fields
from typing import Iterable, List, Optional, Sequence

from .model import PhaseHeuristic, SolverConfig, SolverStats, make_literal

LSIDS_ERASE_MULT = 2.0
LSIDS_LEARNT_MULT = 0.5
LSIDS_DECAY_FACTOR = 1.0 / 0.95
LSIDS_RESCORE_LIMIT = 1e100
LSIDS_RESCORE_FACTOR = 1e-100


class PhaseSelector:
    """Owns saved phases, and the DPS scores, LSIDS activities and decision
    RNG of configured heuristics."""

    def __init__(self, n_vars: int, config: SolverConfig, stats: SolverStats):
        self.config = config
        self.stats = stats
        used = {config.ncb_phase_heuristic, config.cb_phase_heuristic}
        self.saved: List[bool] = [False] * n_vars
        self.dps: Optional[List[float]] = (
            [0.0] * n_vars if PhaseHeuristic.DPS in used else None
        )
        self.lsids_activity: Optional[List[float]] = (
            [0.0] * (2 * n_vars) if PhaseHeuristic.LSIDS in used else None
        )
        self.lsids_inc = 1.0
        self.rng: Optional[random.Random] = (
            random.Random(config.random_seed) if PhaseHeuristic.RANDOM in used else None
        )

    # -- state maintenance hooks -------------------------------------------

    def on_assignments_erased(self, lits: Sequence[int]) -> None:
        """Called once per backtrack with the erased literals, in trail
        order; updates the saved phase of each, and its DPS score and LSIDS
        activity when those are kept.  LSIDS is bumped newest first."""
        saved = self.saved
        for lit in lits:
            saved[lit >> 1] = not lit & 1
        dps = self.dps
        if dps is not None:
            decay = self.config.dps_decay
            for lit in lits:
                var = lit >> 1
                dps[var] = (-1.0 if lit & 1 else 1.0) + decay * dps[var]
        if self.lsids_activity is not None:
            self.lsids_bump(reversed(lits), LSIDS_ERASE_MULT)

    def on_assignment_erased(self, var: int, polarity: bool) -> None:
        """One erased assignment; see on_assignments_erased."""
        self.on_assignments_erased((make_literal(var, polarity),))

    def on_clause_learnt(self, lits: Sequence[int]) -> None:
        """Called once per conflict with the final learnt clause; bumps
        and decays LSIDS activities when they are kept."""
        if self.lsids_activity is None:
            return
        self.lsids_bump(lits, LSIDS_LEARNT_MULT)
        self.lsids_inc *= LSIDS_DECAY_FACTOR

    def lsids_bump(self, lits: Iterable[int], mult: float) -> None:
        """Add mult times the increment to each literal's activity, in
        order.  A rescore shrinks the increment for the rest of the batch."""
        acts = self.lsids_activity
        inc = self.lsids_inc * mult
        for lit in lits:
            act = acts[lit] + inc
            acts[lit] = act
            if act > LSIDS_RESCORE_LIMIT:
                self.lsids_rescore()
                inc = self.lsids_inc * mult

    def lsids_rescore(self) -> None:
        acts = self.lsids_activity
        for i in range(len(acts)):
            acts[i] *= LSIDS_RESCORE_FACTOR
        self.lsids_inc *= LSIDS_RESCORE_FACTOR

    # -- decision-time phase choice ----------------------------------------

    def select_phase(self, var: int, in_cb_state: bool) -> bool:
        """Phase for a fresh decision on var, recording LSIDS usage stats
        only (the engine counts decisions made in CB state).

        The active heuristic depends on the solver's backtrack mode: the
        cb heuristic applies while the last backtrack was chronological,
        the ncb heuristic otherwise.
        """
        if in_cb_state:
            heuristic = self.config.cb_phase_heuristic
        else:
            heuristic = self.config.ncb_phase_heuristic
        if heuristic is PhaseHeuristic.SAVED:
            return self.saved[var]
        if heuristic is PhaseHeuristic.LSIDS:
            choice = self.lsids_activity[2 * var] > self.lsids_activity[2 * var + 1]
            self.stats.lsids_decisions += 1
            if choice != self.saved[var]:
                self.stats.lsids_differs_from_saved += 1
            return choice
        if heuristic is PhaseHeuristic.RANDOM:
            return self.rng.random() < 0.5
        if heuristic is PhaseHeuristic.ALWAYS_FALSE:
            return False
        if heuristic is PhaseHeuristic.OPPOSITE_SAVED:
            return not self.saved[var]
        return self.dps[var] > 0.0  # PhaseHeuristic.DPS


def search_key(config: SolverConfig) -> tuple:
    """Values of the config fields that its search reads before its first
    decision in CB state (one made while the last backtrack was
    chronological).

    Only such a decision reads cb_phase_heuristic (see select_phase).  The
    RNG is drawn, and the DPS and LSIDS state read, only when their own
    heuristic decides, so random_seed and dps_decay count only when the ncb
    heuristic uses them.  Two configurations with one key search
    identically up to that decision, and to the end when there is none.

    The benchmark harness shares searches by this key: while it runs one
    file's jobs, a job whose key matches an earlier job's gets that job's
    result, wall time included, when that search ended SAT or UNSAT
    without a decision in CB state.  Timeouts, errors and searches with a
    CB-state decision are never shared.
    """
    ncb = config.ncb_phase_heuristic
    skip = {"cb_phase_heuristic"}
    if ncb is not PhaseHeuristic.RANDOM:
        skip.add("random_seed")
    if ncb is not PhaseHeuristic.DPS:
        skip.add("dps_decay")
    return tuple(
        getattr(config, f.name) for f in fields(config) if f.name not in skip
    )
