#!/usr/bin/env python3
"""Generate the bundled random-3SAT benchmark pack.

Draws seeded 50-variable / 218-clause instances (clause/variable ratio
4.36, near the phase transition), labels each one by solving it with no
time limit, and keeps the first 100 satisfiable and 100 unsatisfiable
ones.  Every verdict is cross-checked with a second, differently-configured
solve; satisfiable models are additionally validated inside the engine's
exit path.

The recipe is fixed in this script, so the pack is regenerated bit-for-bit:

    python3 scripts/make_bench_pack.py --out-dir benchmarks/pack50
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from chronosat.dimacs import write_dimacs
from chronosat.engine import solve_formula
from chronosat.gen import random_ksat
from chronosat.model import SolverConfig, Verdict

VARS = 50
CLAUSES = 218
MASTER_SEED = 20260819
COUNT_PER_CLASS = 100


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", default="benchmarks/pack50")
    args = ap.parse_args(argv)

    label_cfg = SolverConfig()
    cross_cfg = SolverConfig(
        cb_threshold_t=0, cb_min_conflicts_c=0, cb_phase_heuristic="lsids"
    )
    os.makedirs(args.out_dir, exist_ok=True)
    kept = {Verdict.SAT: 0, Verdict.UNSAT: 0}
    prefix = {Verdict.SAT: "sat", Verdict.UNSAT: "unsat"}
    candidate = 0
    while min(kept.values()) < COUNT_PER_CLASS:
        seed = MASTER_SEED + candidate
        candidate += 1
        formula = random_ksat(VARS, n_clauses=CLAUSES, seed=seed)
        verdict = solve_formula(formula, label_cfg).verdict
        second = solve_formula(formula, cross_cfg).verdict
        if second is not verdict:
            raise RuntimeError(
                f"seed {seed}: verdict disagreement {verdict} vs {second}"
            )
        if kept[verdict] >= COUNT_PER_CLASS:
            continue
        name = f"{prefix[verdict]}_{kept[verdict]:03d}.cnf"
        comments = [
            f"random 3-SAT, {VARS} vars, {CLAUSES} clauses",
            f"generator seed {seed} (master {MASTER_SEED})",
            f"labelled {verdict.value} (cross-checked)",
        ]
        with open(os.path.join(args.out_dir, name), "w") as fh:
            fh.write(write_dimacs(formula, comments=comments))
        kept[verdict] += 1

    print(
        f"wrote {kept[Verdict.SAT]} SAT + {kept[Verdict.UNSAT]} UNSAT instances "
        f"to {args.out_dir} ({candidate} candidates examined)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
