#!/usr/bin/env python3
"""Generate the bundled random-3SAT benchmark pack.

Draws seeded 50-variable / 218-clause instances (clause/variable ratio
4.36, near the phase transition), labels each one by solving it, and keeps
the first 100 satisfiable and 100 unsatisfiable ones.  Every verdict is
cross-checked with a second, differently-configured solve; satisfiable
models are additionally validated inside the engine's exit path.

The pack is deterministic in the master seed, so it can be regenerated
bit-for-bit:

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


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", default="benchmarks/pack50")
    ap.add_argument("--count-per-class", type=int, default=100)
    ap.add_argument("--vars", type=int, default=50)
    ap.add_argument("--clauses", type=int, default=218)
    ap.add_argument("--master-seed", type=int, default=20260819)
    ap.add_argument("--time-limit", type=float, default=30.0,
                    help="per-solve labelling limit; candidates that exceed it are skipped")
    args = ap.parse_args(argv)

    try:
        label_cfg = SolverConfig(time_limit_seconds=args.time_limit)
        cross_cfg = SolverConfig(
            cb_threshold_t=0,
            cb_min_conflicts_c=0,
            cb_phase_heuristic="lsids",
            time_limit_seconds=args.time_limit,
        )
    except ValueError as exc:
        ap.error(str(exc))

    os.makedirs(args.out_dir, exist_ok=True)
    kept = {Verdict.SAT: 0, Verdict.UNSAT: 0}
    prefix = {Verdict.SAT: "sat", Verdict.UNSAT: "unsat"}
    candidate = 0
    while min(kept.values()) < args.count_per_class:
        seed = args.master_seed + candidate
        candidate += 1
        try:
            formula = random_ksat(args.vars, n_clauses=args.clauses, seed=seed)
        except ValueError as exc:
            ap.error(str(exc))
        first = solve_formula(formula, label_cfg)
        if first.verdict is Verdict.UNKNOWN:
            print(f"seed {seed}: labelling timed out, skipped", file=sys.stderr)
            continue
        second = solve_formula(formula, cross_cfg)
        if second.verdict is not first.verdict:
            raise RuntimeError(
                f"seed {seed}: verdict disagreement {first.verdict} vs {second.verdict}"
            )
        verdict = first.verdict
        if kept[verdict] >= args.count_per_class:
            continue
        name = f"{prefix[verdict]}_{kept[verdict]:03d}.cnf"
        comments = [
            f"random 3-SAT, {args.vars} vars, {args.clauses} clauses",
            f"generator seed {seed} (master {args.master_seed})",
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
