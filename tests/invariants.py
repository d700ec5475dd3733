"""Solver state checkers for tests; the engine itself carries none."""

from chronosat.engine import Clause, Solver


def debug_check_watches(solver: Solver) -> None:
    """Assert watch-list consistency; call only at propagation fixpoint.

    Every watch list must alternate clause and blocker, each blocker a
    literal of its clause, and every clause of size >= 2 must be watched
    exactly at its first two positions.  Both watches being false is
    legal only while the clause is satisfied elsewhere (a blocker truth
    kept a falsified watch); a clause with both watches false and no true
    literal would be a missed conflict."""
    expected = {}
    for c in solver.clauses + solver.learnts:
        expected[id(c)] = (c, {c.lits[0], c.lits[1]})
    seen_counts = {cid: [] for cid in expected}
    for lit in range(2 * solver.n_vars):
        wl = solver.watches[lit]
        if len(wl) % 2:
            raise AssertionError(f"watch list of {lit} has odd length")
        for k in range(0, len(wl), 2):
            c, blocker = wl[k], wl[k + 1]
            if not isinstance(c, Clause):
                raise AssertionError(f"watch list of {lit} holds {c!r} at {k}")
            if blocker not in c.lits:
                raise AssertionError(f"blocker {blocker} not in {c!r}")
            cid = id(c)
            if cid not in expected:
                raise AssertionError("watcher for unknown clause")
            seen_counts[cid].append(lit)
    for cid, (c, watch_set) in expected.items():
        got = seen_counts[cid]
        if sorted(got) != sorted(watch_set):
            raise AssertionError(
                f"clause {c!r} watched at {got}, expected {watch_set}"
            )
        v0, v1 = solver.value[c.lits[0]], solver.value[c.lits[1]]
        if v0 < 0 and v1 < 0 and not any(solver.value[l] > 0 for l in c.lits):
            raise AssertionError(f"missed conflict or unit in {c!r}")


def check_invariants(solver: Solver) -> None:
    """Assert the solver's state at a conflict-free propagation fixpoint.

    On top of debug_check_watches: the value table holds exactly the
    trail's assignments; trail_lim has one entry per open level, which
    decision_level counts (_enqueue and _backtrack_to keep the two equal),
    and no entry before trail_lim[k] sits above level k; no clause is falsified
    or unit; every reason holds its implied literal at position 0, with
    the rest false; and an implied literal's level is the highest level
    among its reason's other literals (the levels chronological
    backtracking relies on; Möhle & Biere, "Backing Backtracking", SAT
    2019).  A true literal above the levels of its clause's false ones (a
    missed lower implication) is legal and not checked."""
    debug_check_watches(solver)
    value, level, reason = solver.value, solver.level, solver.reason
    trail, trail_lim = solver.trail, solver.trail_lim

    if solver.qhead != len(trail):
        raise AssertionError(f"qhead {solver.qhead} short of trail end {len(trail)}")
    on_trail = set(trail)
    if len({lit >> 1 for lit in trail}) != len(trail):
        raise AssertionError("a variable appears twice on the trail")
    for lit in range(2 * solver.n_vars):
        want = 1 if lit in on_trail else -1 if lit ^ 1 in on_trail else 0
        if value[lit] != want:
            raise AssertionError(f"value[{lit}] is {value[lit]}, expected {want}")

    if len(trail_lim) != solver.decision_level:
        raise AssertionError(
            f"{len(trail_lim)} trail_lim entries at level {solver.decision_level}"
        )
    for k, lim in enumerate(trail_lim + [len(trail)]):
        top = max((level[lit >> 1] for lit in trail[:lim]), default=0)
        if top > k:
            raise AssertionError(
                f"an entry at level {top} sits before position {lim}, "
                f"where level {k + 1} opens"
            )

    for c in solver.clauses + solver.learnts:
        vals = [value[l] for l in c.lits]
        if all(x < 0 for x in vals):
            raise AssertionError(f"missed conflict: {c!r} is false")
        if vals.count(0) == 1 and vals.count(-1) == len(vals) - 1:
            raise AssertionError(f"missed unit: {c!r}")

    for lit in trail:
        r = reason[lit >> 1]
        if r is None:
            continue
        if r.lits[0] != lit:
            raise AssertionError(f"reason {r!r} of {lit} does not hold it first")
        rest = r.lits[1:]
        if any(value[l] >= 0 for l in rest):
            raise AssertionError(f"reason {r!r} of {lit} has a non-false literal")
        want = max(level[l >> 1] for l in rest)
        if level[lit >> 1] != want:
            raise AssertionError(
                f"{lit} implied at level {level[lit >> 1]} by {r!r}, expected {want}"
            )


def check_queue_start(solver: Solver) -> None:
    """Assert the solver's state when propagation starts: the queue head
    is at or after trail_lim[-1], where the current level opened.

    So the literal a conflict interrupts sits at or after that position,
    and the backtrack that follows, to a level below the current one,
    rewinds the head to it or earlier: _propagate need not rewind."""
    if solver.trail_lim and solver.qhead < solver.trail_lim[-1]:
        raise AssertionError(
            f"queue head {solver.qhead} before position {solver.trail_lim[-1]}, "
            f"where level {len(solver.trail_lim)} opens"
        )


def check_backtrack_start(solver: Solver, target: int) -> None:
    """Assert the solver's state when a backtrack to target starts: the
    queue head is at or after trail_lim[target], where the trail is cut.

    A conflict leaves the head past the literal it interrupts, at or after
    trail_lim[-1] (check_queue_start), and a restart runs only at a
    fixpoint, with the head at the trail's end.  So _backtrack_to can set
    the head to the cut unconditionally: that never moves it forward past
    an unpropagated literal."""
    cut = solver.trail_lim[target]
    if solver.qhead < cut:
        raise AssertionError(
            f"queue head {solver.qhead} before position {cut}, "
            f"where the backtrack to level {target} cuts the trail"
        )


def check_conflict(solver: Solver, confl: Clause) -> None:
    """Assert the solver's state when propagation returns a conflict.

    confl is falsified, and the literal whose watchers found it is the last
    one the queue head passed, trail[qhead - 1] (confl holds its negation):
    the head stays past it until a backtrack rewinds it.  conflict_level is
    the highest level in confl."""
    if any(solver.value[l] >= 0 for l in confl.lits):
        raise AssertionError(f"conflict {confl!r} is not falsified")
    top = max(solver.level[l >> 1] for l in confl.lits)
    if solver.conflict_level != top:
        raise AssertionError(
            f"conflict_level {solver.conflict_level}, but {confl!r} tops at {top}"
        )
    trail, qhead = solver.trail, solver.qhead
    if not 0 < qhead <= len(trail) or trail[qhead - 1] ^ 1 not in confl.lits:
        raise AssertionError(f"queue head {qhead} did not find conflict {confl!r}")


def check_learnt(solver, conflict_level, bumped, learnt, assert_level, lbd):
    """Assert the clause _analyze returned for a conflict at conflict_level.

    bumped lists the variables the first-UIP walk bumped, in order; those
    below the conflict level, as their false literals, are the collected
    literals.  The asserting literal comes first, false at the conflict
    level.  The rest are the collected literals whose reason is not wholly
    inside the collected ones or at level 0, all false below the conflict
    level, in collected order except that the first literal of their
    highest level is swapped to position 1; that level is assert_level (0
    for a unit).  No variable repeats, lbd is the number of distinct levels
    in the clause, and seen is all zero again."""
    value, level, reason = solver.value, solver.level, solver.reason
    head, rest = learnt[0], learnt[1:]
    if value[head] >= 0 or level[head >> 1] != conflict_level:
        raise AssertionError(
            f"asserting literal {head} is not false at level {conflict_level}"
        )
    for q in rest:
        if value[q] >= 0 or level[q >> 1] >= conflict_level:
            raise AssertionError(f"{q} is not false below level {conflict_level}")
    if len({q >> 1 for q in learnt}) != len(learnt):
        raise AssertionError(f"a variable repeats in {learnt}")

    collected = [
        v << 1 | (value[v << 1] > 0) for v in bumped if level[v] < conflict_level
    ]
    inside = {q >> 1 for q in collected}
    want = []
    for q in collected:
        r = reason[q >> 1]
        if r is None or any(
            u != q ^ 1 and u >> 1 not in inside and level[u >> 1] > 0 for u in r.lits
        ):
            want.append(q)
    top = max((level[q >> 1] for q in want), default=0)
    if want:
        k = next(k for k, q in enumerate(want) if level[q >> 1] == top)
        want[0], want[k] = want[k], want[0]
    if rest != want:
        raise AssertionError(f"learnt clause {learnt} has tail {rest}, expected {want}")
    if assert_level != top:
        raise AssertionError(f"assertion level {assert_level}, expected {top}")
    levels = len({level[q >> 1] for q in learnt})
    if lbd != levels:
        raise AssertionError(f"lbd {lbd}, but the clause spans {levels} levels")
    if any(solver.seen):
        raise AssertionError("seen is not all zero after analysis")
