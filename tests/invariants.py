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
