"""CDCL search engine with hybrid chronological/non-chronological backtracking.

The solver is classic conflict-driven clause learning (two-watched-literal
propagation, first-UIP learning with self-subsumption minimisation, EVSIDS
branching, Luby or LBD-driven restarts, learnt-clause database reduction)
with one structural twist: backtracking is level-aware, not suffix-based.

A chronological backtrack erases only the levels above its target, so the
trail becomes non-monotonic: an entry's decision level may be lower than
the entry before it.  Everything downstream honours that:

* an implied literal is recorded at the highest level among the falsified
  literals of its reason clause, not at the current decision level;
* a conflict is analysed at the highest level appearing in the conflict
  clause, which can sit below the current decision level;
* the first-UIP walk only resolves trail literals at that conflict level,
  and backtracking removes exactly the entries above the target level
  wherever they sit on the trail.

Whether a conflict backtracks chronologically is decided by the hybrid T/C
rule in choose_backtrack_level.

Formula clauses are literal tuples; the engine copies each into its own
Clause record, whose literal list the propagator reorders in place.

Watch lists are flat: ``watches[lit]`` alternates clause and blocker,
``[c0, b0, c1, b1, ...]``, so a watcher costs two list slots and no object
of its own.  The blocker is a literal of the clause whose truth lets the
propagator skip it without touching the clause (Chu, Harwood & Stuckey,
"Cache Conscious Data Structures for Boolean Satisfiability Solvers").
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import replace
from heapq import heapify, heappop, heappush
from typing import Iterable, List, Optional, Tuple

from .model import (
    Formula,
    RestartPolicy,
    SolveResult,
    SolverConfig,
    SolverStats,
    Verdict,
    _collector_paused,
    lit_to_dimacs,
)
from .phase import PhaseSelector
from .verify import check_model

VAR_RESCALE_LIMIT = 1e100
VAR_RESCALE_FACTOR = 1e-100
CLA_RESCALE_LIMIT = 1e20
CLA_RESCALE_FACTOR = 1e-20
CLA_DECAY = 0.999
VAR_DECAY = 0.95
CLAUSE_DB_LIMIT_GROWTH = 300
GLUCOSE_WINDOW = 50
GLUCOSE_MARGIN = 0.8


def luby(index: int) -> int:
    """Luby restart sequence 1,1,2,1,1,2,4,... (0-based index)."""
    if index < 0:
        raise ValueError(f"need a Luby index >= 0, got {index}")
    size, seq = 1, 0
    while size < index + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != index:
        size = (size - 1) >> 1
        seq -= 1
        index = index % size
    return 1 << seq


def choose_backtrack_level(
    current_level: int,
    analysis_level: int,
    conflicts_before: int,
    config: SolverConfig,
) -> Tuple[int, bool]:
    """Apply the hybrid T/C backtracking rule to one conflict.

    Returns (target_level, is_cb).  current_level is the conflict level
    (the level the conflict was analysed at), analysis_level the level the
    learnt clause asserts at (the second-highest level in it),
    conflicts_before the number of conflicts completed prior to this one.
    Classic CDCL backtracks non-chronologically straight to the analysis
    level; chronological backtracking instead steps to current_level - 1,
    keeping the intermediate assignments alive.  The rule:

    * for the first C conflicts, always backtrack non-chronologically;
    * afterwards, if the jump distance current_level - analysis_level is
      strictly greater than T, backtrack chronologically to
      current_level - 1;
    * otherwise backtrack non-chronologically to the analysis level.

    The C rule supersedes the T rule.  The solver is "in CB-state" while
    its most recent backtrack was chronological; phase selection
    dispatches on that flag.
    """
    if not 0 <= analysis_level < current_level:
        raise ValueError(
            f"need 0 <= analysis_level < current_level, "
            f"got {analysis_level} and {current_level}"
        )
    if conflicts_before < config.cb_min_conflicts_c:
        return analysis_level, False
    if current_level - analysis_level > config.cb_threshold_t:
        return current_level - 1, True
    return analysis_level, False


class Clause:
    """A clause's literals, LBD and activity.  An input clause has LBD 0, a
    learnt one LBD >= 1 as its literals sit above level 0.  Positions 0 and
    1 of ``lits`` are watched; a reason holds its implied literal at 0."""

    __slots__ = ("lits", "lbd", "activity")

    def __init__(self, lits: List[int], lbd: int = 0, activity: float = 0.0):
        self.lits = lits
        self.lbd = lbd
        self.activity = activity

    def __repr__(self) -> str:
        kind = "learnt" if self.lbd else "input"
        return f"Clause({[lit_to_dimacs(l) for l in self.lits]}, {kind})"


class Solver:
    """CDCL solver for a fixed formula.

    solve() may be called again.  A call that the time limit stopped is
    continued by the next one, which gets the full limit again; the
    verdict, model and counters then equal those of one uninterrupted
    solve.  After SAT or UNSAT every later call returns the same result:
    ok is False once UNSAT is proven, by an empty or falsified input clause
    or by a conflict at level 0."""

    @_collector_paused
    def __init__(self, formula: Formula, config: Optional[SolverConfig] = None):
        """Copy the formula's clauses, attach their watchers and assign its
        units.  The cyclic collector is paused, process-wide, for the
        duration of the call."""
        self.formula = formula
        self.config = config or SolverConfig()
        n = formula.variable_count
        self.n_vars = n
        self.stats = SolverStats()
        # True while the most recent backtrack was chronological.
        self.in_cb_state = False
        self.phase = PhaseSelector(n, self.config, self.stats)

        # value is indexed by literal: +1 true, -1 false, 0 unassigned.
        self.value: List[int] = [0] * (2 * n)
        self.level: List[int] = [0] * n
        # Read only for assigned variables: an erase leaves it stale.
        self.reason: List[Optional[Clause]] = [None] * n
        self.trail: List[int] = []
        # trail_lim[k] is the trail position where level k+1 opened; every
        # entry before it has a level <= k.
        self.trail_lim: List[int] = []
        self.qhead = 0
        # Always len(trail_lim): only _enqueue and _backtrack_to set it.
        self.decision_level = 0
        self.conflict_level = 0

        # watches[lit] is flat: clause, blocker, clause, blocker, ...
        self.watches: List[list] = [[] for _ in range(2 * n)]
        self.clauses: List[Clause] = []
        self.learnts: List[Clause] = []
        self.learnt_limit = self.config.clause_db_init_limit

        self.var_activity: List[float] = [0.0] * n
        self.var_inc = 1.0
        self.cla_inc = 1.0

        self.seen = bytearray(n)
        # Conflicts left before the next Luby restart.
        self._restart_budget = luby(0) * self.config.luby_base
        # Set by each conflict, cleared by each restart; read by decisions.
        self._restart_due = False
        self._lbd_recent: deque = deque(maxlen=GLUCOSE_WINDOW)
        self._lbd_global_sum = 0

        # Input clauses are copied in order; a unit is assigned at level 0,
        # and an empty or falsified one stops here.
        self.ok = True
        clauses = self.clauses
        value = self.value
        for clause in formula.clauses:
            if len(clause) > 1:
                clauses.append(Clause(list(clause)))
            elif not clause or value[clause[0]] < 0:
                self.ok = False
                break
            elif value[clause[0]] == 0:
                self._enqueue(clause[0], None, 0)
        self._attach(clauses)
        self._rebuild_heap()

    # -- construction --------------------------------------------------------

    def _attach(self, clauses: Iterable[Clause]) -> None:
        """Watch the first two literals of each clause, in order: each
        watched literal's list gets the clause and the other as blocker."""
        watches = self.watches
        for c in clauses:
            lits = c.lits
            l0, l1 = lits[0], lits[1]
            wl = watches[l0]
            wl.append(c)
            wl.append(l1)
            wl = watches[l1]
            wl.append(c)
            wl.append(l0)

    def _enqueue(self, lit: int, reason: Optional[Clause], level: int) -> None:
        """Assign lit at level, opening every level up to it at the trail's
        end and recording in decision_level how many are open."""
        self.value[lit] = 1
        self.value[lit ^ 1] = -1
        v = lit >> 1
        self.level[v] = level
        self.reason[v] = reason
        trail = self.trail
        trail_lim = self.trail_lim
        while len(trail_lim) < level:
            trail_lim.append(len(trail))
        self.decision_level = len(trail_lim)
        trail.append(lit)

    # -- propagation ----------------------------------------------------------

    def _propagate(self) -> Optional[Clause]:
        """Propagate to fixpoint; returns a conflicting clause, whose highest
        level goes into conflict_level for the caller alone to read, or None.

        Each flat watch list is walked two slots at a time (clause, blocker)
        and compacted in place: a watcher that stays is written back at the
        write index with its blocker refreshed, and one that moves to a new
        literal is appended there as a (clause, blocker) pair.

        The head's travel is the propagation count: one step per dequeued
        literal, the one a conflict interrupts included.
        On conflict the queue head stays just past the interrupted literal,
        whose unvisited watchers stay in its list, in order.  Only
        _backtrack_to moves the head back, and that one rewind is enough to
        scan them again if the literal survives the backtrack: propagation
        starts at or after trail_lim[-1] (tests/invariants.py,
        check_queue_start), so the interrupted literal sits there or later,
        and every conflict above level 0 backtracks to a target below the
        current level, whose trail_lim entry is no later.  A conflict at
        level 0 ends the search.
        """
        value = self.value
        watches = self.watches
        level = self.level
        reason = self.reason
        trail = self.trail
        qhead = self.qhead
        confl: Optional[Clause] = None

        while qhead < len(trail):
            p = trail[qhead]
            qhead += 1
            plevel = level[p >> 1]
            false_lit = p ^ 1
            wl = watches[false_lit]
            i = j = 0
            n = len(wl)
            while i < n:
                blocker = wl[i + 1]
                # Satisfied-by-blocker shortcut.  The blocker may no longer
                # be watched, so its truth is only trusted when it cannot
                # outlive the falsity being recorded here: any backtrack
                # erasing a truth at level <= plevel erases this assignment
                # of p too.  Without the level guard a stale true blocker
                # could mask a clause whose watches are both false, and its
                # later falsification would never rescan this clause.
                if value[blocker] > 0 and level[blocker >> 1] <= plevel:
                    wl[j] = wl[i]
                    wl[j + 1] = blocker
                    i += 2
                    j += 2
                    continue
                c = wl[i]
                i += 2
                lits = c.lits
                if lits[0] == false_lit:
                    lits[0] = lits[1]
                    lits[1] = false_lit
                first = lits[0]
                if first != blocker and value[first] > 0:
                    wl[j] = c
                    wl[j + 1] = first
                    j += 2
                    continue
                # Search a replacement watch; every literal inspected and
                # rejected is false, so the running max of their levels is
                # the implied level if the clause turns out unit.  The else
                # handles a miss; its break on a conflict leaves the list loop.
                maxlev = plevel
                k = 2
                nlits = len(lits)
                while k < nlits:
                    lk = lits[k]
                    if value[lk] >= 0:
                        lits[1] = lk
                        lits[k] = false_lit
                        moved = watches[lk]
                        moved.append(c)
                        moved.append(first)
                        break
                    lev = level[lk >> 1]
                    if lev > maxlev:
                        maxlev = lev
                    k += 1
                else:
                    wl[j] = c
                    wl[j + 1] = first
                    j += 2
                    fval = value[first]
                    if fval < 0:
                        confl = c
                        self.conflict_level = max(maxlev, level[first >> 1])
                        break
                    if fval == 0:
                        value[first] = 1
                        value[first ^ 1] = -1
                        v = first >> 1
                        level[v] = maxlev
                        reason[v] = c
                        trail.append(first)
                    # else: first is true at a level above plevel; the clause
                    # is satisfied and first is still watched: nothing to do.
            # Drop the slots left behind by moved watchers; after a conflict
            # the unvisited watchers from i on stay, in order.
            del wl[j:i]
            if confl is not None:
                break

        self.stats.propagations += qhead - self.qhead
        self.qhead = qhead
        return confl

    # -- conflict analysis ----------------------------------------------------

    def _analyze(self, confl: Clause, conflict_level: int):
        """First-UIP analysis at the conflict level.

        Returns (learnt_lits, assert_level, lbd) with the asserting literal
        first and the first kept literal of the highest remaining level
        second.  Literals below the conflict level are collected directly;
        only those at it are resolved, and the walk clears seen for each as
        it resolves it, the UIP included, so seen then marks exactly the
        collected literals' variables.
        """
        seen = self.seen
        level = self.level
        reason = self.reason
        trail = self.trail
        collected: List[int] = []
        pathc = 0
        p = -1
        idx = len(trail) - 1
        c = confl

        while True:
            if c.lbd:
                self._cla_bump(c)
            for q in c.lits:
                if q == p:
                    continue
                v = q >> 1
                lv = level[v]
                if not seen[v] and lv > 0:
                    seen[v] = 1
                    self._var_bump(v)
                    if lv == conflict_level:
                        pathc += 1
                    else:
                        collected.append(q)
            while True:
                pv = trail[idx] >> 1
                if seen[pv] and level[pv] == conflict_level:
                    break
                idx -= 1
            p = trail[idx]
            idx -= 1
            seen[pv] = 0
            pathc -= 1
            if pathc == 0:
                break
            c = reason[pv]

        # One pass: self-subsumption drops a literal whose entire reason is
        # in the clause (or at level 0); the kept levels give the LBD.
        learnt = [p ^ 1]
        levels = {conflict_level}
        assert_level = 0
        mi = 0
        for q in collected:
            v = q >> 1
            r = reason[v]
            if r is not None:
                implied = q ^ 1
                for u in r.lits:
                    if u != implied and not seen[u >> 1] and level[u >> 1] > 0:
                        break
                else:
                    continue
            lv = level[v]
            if lv > assert_level:
                assert_level = lv
                mi = len(learnt)
            levels.add(lv)
            learnt.append(q)
        if mi:
            learnt[1], learnt[mi] = learnt[mi], learnt[1]

        for q in collected:
            seen[q >> 1] = 0
        return learnt, assert_level, len(levels)

    # -- activities -----------------------------------------------------------

    def _var_bump(self, v: int) -> None:
        acts = self.var_activity
        a = acts[v] + self.var_inc
        acts[v] = a
        if a > VAR_RESCALE_LIMIT:
            for i in range(self.n_vars):
                acts[i] *= VAR_RESCALE_FACTOR
            self.var_inc *= VAR_RESCALE_FACTOR
            self._rebuild_heap()

    def _cla_bump(self, c: Clause) -> None:
        c.activity += self.cla_inc
        if c.activity > CLA_RESCALE_LIMIT:
            for lc in self.learnts:
                lc.activity *= CLA_RESCALE_FACTOR
            self.cla_inc *= CLA_RESCALE_FACTOR

    def _rebuild_heap(self) -> None:
        """Build the decision heap: one entry (-var_activity[v], v) per
        unassigned variable v, with heap_act[v] its activity, and heap_act
        -1.0 for each assigned variable.  No other code assigns either.

        Between rebuilds heap_act[v] is the activity of v's newest entry, or
        -1.0 once that entry is popped, and each unassigned v has its newest
        entry in the heap, equal to (-var_activity[v], v): only an erase in
        _backtrack_to pushes, and only when that does not hold already.
        Only assigned variables are bumped and activities only grow between
        rebuilds, so v's entries carry distinct activities and its newest is
        popped first.  Hence every pop may set heap_act[v] to -1.0, and a
        pick need only skip entries of assigned variables."""
        acts = self.var_activity
        value = self.value
        heap_act = self.heap_act = [-1.0] * self.n_vars
        heap = [(-acts[v], v) for v in range(self.n_vars) if value[v << 1] == 0]
        for _, v in heap:
            heap_act[v] = acts[v]
        heapify(heap)
        self.heap = heap

    def _pick_branch_var(self) -> Optional[int]:
        """Unassigned variable of maximal activity; ties go to the lowest
        index via the heap ordering.  Pops entries, skipping those of
        assigned variables (see _rebuild_heap for why that suffices)."""
        heap = self.heap
        heap_act = self.heap_act
        value = self.value
        while heap:
            v = heappop(heap)[1]
            heap_act[v] = -1.0
            if value[v << 1] == 0:
                return v
        return None

    # -- backtracking ---------------------------------------------------------

    def _backtrack_to(self, target: int) -> None:
        """Remove exactly the trail entries above target, wherever they sit;
        raise ValueError, changing nothing, unless 0 <= target < len(trail_lim).

        Shaped as cancelUntil in Maple_LCM_Dist_ChronoBT: the trail is cut
        once at trail_lim[target], where level target + 1 opened, so no entry
        before it is re-read, however long the trail.  A walk over the cut
        puts the entries at or below target (left by chronological
        backtracks) back in order and erases each other one: its value
        slots are cleared, its reason is left for the next assignment to
        overwrite, and its variable goes onto the decision heap when its
        newest entry there is gone or carries an older activity.  These
        pushes are the heap's only growth, so a heap past 4 * n_vars + 64
        entries is rebuilt after the walk.  The erased literals go to the
        phase selector in one call, in trail order; the selector applies
        LSIDS bumps newest first.  The propagation head, at or past the cut
        at every engine call, is set to it: entries put back are rescanned,
        so a clause watched by one of them and an erased literal is looked
        at again.  No other code moves the head back."""
        trail_lim = self.trail_lim
        if not 0 <= target < len(trail_lim):
            raise ValueError(f"need 0 <= target < {len(trail_lim)}, got {target}")
        self.decision_level = target
        i = trail_lim[target]
        del trail_lim[target:]
        trail = self.trail
        cut = trail[i:]
        del trail[i:]
        level = self.level
        value = self.value
        acts = self.var_activity
        heap = self.heap
        heap_act = self.heap_act
        removed = []
        for lit in cut:
            v = lit >> 1
            if level[v] <= target:
                trail.append(lit)
                continue
            removed.append(lit)
            value[lit] = 0
            value[lit ^ 1] = 0
            a = acts[v]
            if heap_act[v] != a:
                heap_act[v] = a
                heappush(heap, (-a, v))
        if len(heap) > 4 * self.n_vars + 64:
            self._rebuild_heap()
        self.phase.on_assignments_erased(removed)
        self.qhead = i

    # -- restarts and clause database -----------------------------------------

    def _note_conflict(self, lbd: int) -> None:
        """Evaluate the restart rule after a counted conflict.  Its inputs
        change only here and in _restart, so the verdict holds until the
        next decision made above level 0.  Only GLUCOSE keeps LBD state."""
        if self.config.restart_policy is RestartPolicy.LUBY:
            self._restart_budget -= 1
            self._restart_due = self._restart_budget <= 0
            return
        recent = self._lbd_recent
        recent.append(lbd)
        self._lbd_global_sum += lbd
        self._restart_due = (
            len(recent) == GLUCOSE_WINDOW
            and sum(recent) / GLUCOSE_WINDOW * GLUCOSE_MARGIN
            > self._lbd_global_sum / self.stats.conflicts
        )

    def _restart(self) -> None:
        self.stats.restarts += 1
        self._restart_budget = luby(self.stats.restarts) * self.config.luby_base
        self._restart_due = False
        self._lbd_recent.clear()
        self._backtrack_to(0)
        self.in_cb_state = False

    def _reduce_db(self) -> None:
        """Drop the worst half of the deletable learnt clauses.

        Clauses with lbd <= 2 and clauses locked as a current reason are
        kept; the rest rank by (lbd ascending, activity descending) and the
        bottom half is removed, then watches are rebuilt."""
        value = self.value
        reason = self.reason
        protected = []
        candidates = []
        for c in self.learnts:
            first = c.lits[0]
            locked = value[first] > 0 and reason[first >> 1] is c
            if c.lbd <= 2 or locked:
                protected.append(c)
            else:
                candidates.append(c)
        candidates.sort(key=lambda cl: (cl.lbd, -cl.activity))
        keep = len(candidates) - len(candidates) // 2
        self.learnts = protected + candidates[:keep]
        self.watches = [[] for _ in range(2 * self.n_vars)]
        self._attach(self.clauses)
        self._attach(self.learnts)

    # -- main loop -------------------------------------------------------------

    @_collector_paused
    def solve(self) -> SolveResult:
        """Search, check a SAT model against the formula and return the
        result with its own copy of the counters, whose wall_time_seconds
        adds this call's time to that of earlier calls.  The cyclic
        collector is paused, process-wide, for the duration of the call."""
        start = time.monotonic()
        limit = self.config.time_limit_seconds
        verdict = self._search(None if limit is None else start + limit)
        model = None
        if verdict is Verdict.SAT:
            # The search only returns SAT once no variable is unassigned.
            value = self.value
            model = [value[v << 1] > 0 for v in range(self.n_vars)]
            if not check_model(self.formula, model):
                raise RuntimeError("internal error: produced model fails a clause")
        self.stats.wall_time_seconds += time.monotonic() - start
        return SolveResult(verdict, model=model, stats=replace(self.stats))

    def _search(self, deadline: Optional[float]) -> Verdict:
        """CDCL loop.  One step is one propagation to fixpoint followed by
        one conflict analysis, a restart or a decision; the deadline (a
        time.monotonic value, or None) is checked once before each step.
        No state lives in locals between steps, so the next call continues
        a search that the deadline stopped."""
        if not self.ok:
            return Verdict.UNSAT
        cfg = self.config
        stats = self.stats
        while True:
            if deadline is not None and time.monotonic() > deadline:
                return Verdict.UNKNOWN
            confl = self._propagate()
            if confl is not None:
                if self.conflict_level == 0:
                    stats.conflicts += 1
                    self.ok = False
                    return Verdict.UNSAT
                learnt, assert_level, lbd = self._analyze(confl, self.conflict_level)
                target, is_cb = choose_backtrack_level(
                    self.conflict_level, assert_level, stats.conflicts, cfg
                )
                stats.conflicts += 1
                self._note_conflict(lbd)
                self._backtrack_to(target)
                self.in_cb_state = is_cb
                if is_cb:
                    stats.cb_backtracks += 1
                else:
                    stats.ncb_backtracks += 1
                c = None
                if len(learnt) > 1:
                    c = Clause(learnt, lbd, self.cla_inc)
                    self.learnts.append(c)
                    self._attach((c,))
                self._enqueue(learnt[0], c, assert_level)
                self.phase.on_clause_learnt(learnt)
                self.var_inc *= 1.0 / VAR_DECAY
                self.cla_inc *= 1.0 / CLA_DECAY
            else:
                if self._restart_due and self.decision_level > 0:
                    self._restart()
                    continue
                if len(self.learnts) >= self.learnt_limit:
                    self._reduce_db()
                    self.learnt_limit += CLAUSE_DB_LIMIT_GROWTH
                v = self._pick_branch_var()
                if v is None:
                    return Verdict.SAT
                phase = self.phase.select_phase(v, self.in_cb_state)
                stats.decisions += 1
                stats.cb_state_decisions += self.in_cb_state
                self._enqueue(2 * v + (0 if phase else 1), None, self.decision_level + 1)


def solve_formula(
    formula: Formula, config: Optional[SolverConfig] = None
) -> SolveResult:
    """Convenience wrapper: build a solver, run it, return the result."""
    return Solver(formula, config).solve()
