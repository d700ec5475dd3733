#!/usr/bin/env python3
"""A/B comparison of the two bundled presets over an instance corpus.

Runs mldc-like (phase saving in both backtracking states) against
mldc-lsids-like (LSIDS phase selection while in the chronological state)
and writes the full per-instance CSV plus cactus and scatter plot data:

    python3 scripts/run_ab.py --corpus benchmarks/pack50 --out-dir ab_results

Outputs in --out-dir:
    runs.csv         one row per (instance, preset)
    cactus.csv       configLabel,rank,time_s over solved instances
    scatter.csv      instance,time_a,time_b,a_clamped,b_clamped
and a PAR-2 / LSIDS-usage summary on stdout.
"""

import argparse
import csv
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from chronosat.bench import (
    cactus_points,
    par2_score,
    run_suite,
    scatter_points,
    write_csv,
)
from chronosat.cli import PRESETS
from chronosat.model import SolverConfig

LABEL_A = "mldc-like"
LABEL_B = "mldc-lsids-like"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--corpus", default="benchmarks/pack50")
    ap.add_argument("--out-dir", default="ab_results")
    ap.add_argument("--time-limit", type=float, default=10.0)
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args(argv)

    configs = [
        (LABEL_A, SolverConfig(**PRESETS[LABEL_A])),
        (LABEL_B, SolverConfig(**PRESETS[LABEL_B])),
    ]
    try:
        records = run_suite(
            args.corpus, configs, time_limit=args.time_limit, workers=args.workers
        )
    except ValueError as exc:
        ap.error(str(exc))

    os.makedirs(args.out_dir, exist_ok=True)
    write_csv(records, os.path.join(args.out_dir, "runs.csv"))

    with open(os.path.join(args.out_dir, "cactus.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["configLabel", "rank", "time_s"])
        for label, points in sorted(cactus_points(records).items()):
            for rank, t in points:
                writer.writerow([label, rank, f"{t:.6f}"])

    with open(os.path.join(args.out_dir, "scatter.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["instance", "time_a", "time_b", "a_clamped", "b_clamped"])
        for p in scatter_points(records, LABEL_A, LABEL_B, args.time_limit):
            writer.writerow(
                [
                    p.instance,
                    f"{p.time_a:.6f}",
                    f"{p.time_b:.6f}",
                    str(p.a_clamped).lower(),
                    str(p.b_clamped).lower(),
                ]
            )

    for label in (LABEL_A, LABEL_B):
        rows = [r for r in records if r.config_label == label]
        solved = sum(1 for r in rows if r.solved)
        decisions = sum(r.lsids_decisions for r in rows)
        differs = sum(r.lsids_differs_saved for r in rows)
        frac = differs / decisions if decisions else 0.0
        print(
            f"{label}: solved {solved}/{len(rows)}, "
            f"PAR-2 {par2_score(rows, args.time_limit):.2f}, "
            f"lsids decisions {decisions} (differs from saved: {frac:.2%})"
        )
    print(f"wrote runs.csv, cactus.csv, scatter.csv to {args.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
