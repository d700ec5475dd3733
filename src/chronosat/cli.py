"""Command-line interface: solve one instance, bench a corpus, verify a model.

Exit codes follow SAT-competition convention for `solve` (10 SAT, 20 UNSAT,
0 unknown/timeout); `bench` exits 0 on completion; `verify` exits 0 when the
model satisfies the formula and 1 when it does not.  Usage and input errors,
and a `bench --out` path that cannot be written, exit 2 with a diagnostic
on stderr.  Both text formats, DIMACS CNF and competition-style results,
are parsed and rendered in `dimacs`; files are handed to it as bytes, so
decoding and the line rule are stated there alone.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import Callable, List, Optional, TypeVar

from .bench import par2_score, run_suite, write_csv
from .dimacs import DimacsError, parse_dimacs, parse_model, render_result
from .engine import solve_formula
from .model import PhaseHeuristic, RestartPolicy, SolverConfig, Verdict
from .verify import first_falsified_clause

PRESETS = {
    "mldc-like": {
        "ncb_phase_heuristic": PhaseHeuristic.SAVED,
        "cb_phase_heuristic": PhaseHeuristic.SAVED,
        "cb_threshold_t": 100,
        "cb_min_conflicts_c": 4000,
    },
    "mldc-lsids-like": {
        "ncb_phase_heuristic": PhaseHeuristic.SAVED,
        "cb_phase_heuristic": PhaseHeuristic.LSIDS,
        "cb_threshold_t": 100,
        "cb_min_conflicts_c": 4000,
    },
}

_EXIT_CODES = {Verdict.SAT: 10, Verdict.UNSAT: 20, Verdict.UNKNOWN: 0}

_T = TypeVar("_T")


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    phases = [h.value for h in PhaseHeuristic]
    p.add_argument(
        "--preset",
        choices=sorted(PRESETS),
        help="named configuration; explicit flags override its fields",
    )
    p.add_argument("--phase-ncb", dest="ncb_phase_heuristic", choices=phases,
                   help="phase heuristic outside CB state")
    p.add_argument("--phase-cb", dest="cb_phase_heuristic", choices=phases,
                   help="phase heuristic while in CB state")
    p.add_argument("--cb-threshold-t", type=int, metavar="T",
                   help="backtrack chronologically when the level gap exceeds T")
    p.add_argument("--cb-min-conflicts-c", type=int, metavar="C",
                   help="disable chronological backtracking for the first C conflicts")
    p.add_argument("--dps-decay", type=float, metavar="F", help="DPS decay factor in (0,1)")
    p.add_argument("--seed", dest="random_seed", type=int, metavar="SEED",
                   help="RNG seed for the random phase heuristic")
    p.add_argument("--restart", dest="restart_policy",
                   choices=[r.value for r in RestartPolicy], help="restart policy")
    p.add_argument("--luby-base", type=int, metavar="N", help="Luby restart base interval")
    p.add_argument("--time-limit", dest="time_limit_seconds", type=float, metavar="S",
                   help="wall-clock limit in seconds; exceeded runs report UNKNOWN")


def _build_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> SolverConfig:
    kwargs = {}
    if args.preset:
        kwargs.update(PRESETS[args.preset])
    for field in dataclasses.fields(SolverConfig):
        value = getattr(args, field.name, None)
        if value is not None:
            kwargs[field.name] = value
    try:
        return SolverConfig(**kwargs)
    except ValueError as exc:
        parser.error(str(exc))


def _read(path: str, parse: Callable[[bytes], _T], parser: argparse.ArgumentParser) -> _T:
    """Parse a file's bytes; an unreadable or malformed file is a usage error."""
    try:
        with open(path, "rb") as fh:
            return parse(fh.read())
    except OSError as exc:
        parser.error(f"cannot read {path}: {exc.strerror or exc}")
    except DimacsError as exc:
        parser.error(f"{path}: {exc}")


def _cmd_solve(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    config = _build_config(args, parser)
    formula, warnings = _read(args.cnf, parse_dimacs, parser)
    for lineno, message in warnings:
        print(f"c warning: line {lineno}: {message}", file=sys.stderr)
    result = solve_formula(formula, config)
    for name, value in result.stats.counter_items():
        print(f"c stat {name}={value}")
    print(f"c time wall_s={result.stats.wall_time_seconds:.6f}")
    sys.stdout.write(render_result(result))
    return _EXIT_CODES[result.verdict]


def _cmd_bench(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    config = _build_config(args, parser)
    label = args.label or args.preset or "custom"
    # Fail before the suite runs, not after it.  Appending checks the path
    # without truncating a CSV that is already there.
    created = not os.path.lexists(args.out)
    try:
        open(args.out, "a").close()
    except OSError as exc:
        parser.error(f"cannot write {args.out}: {exc.strerror or exc}")
    if created:
        os.remove(args.out)
    try:
        records = run_suite(args.corpus, [(label, config)], workers=args.workers)
    except ValueError as exc:
        parser.error(str(exc))
    write_csv(records, args.out)
    solved = sum(1 for r in records if r.solved)
    print(f"c bench label={label} instances={len(records)} solved={solved}")
    if args.time_limit_seconds is not None:
        print(f"c bench par2={par2_score(records, args.time_limit_seconds):.2f}")
    print(f"c bench wrote {args.out}")
    return 0


def _cmd_verify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    formula, _ = _read(args.cnf, parse_dimacs, parser)
    model = _read(args.model, lambda text: parse_model(text, formula.variable_count), parser)
    idx = first_falsified_clause(formula, model)
    if idx is None:
        print("c verify: model satisfies the formula")
        return 0
    print(f"c verify: model falsifies clause {idx}")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chronosat",
        description="CDCL SAT solver with hybrid chronological backtracking",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one DIMACS CNF file")
    p_solve.add_argument("cnf", help="path to a DIMACS CNF file")
    _add_config_flags(p_solve)

    p_bench = sub.add_parser("bench", help="run one configuration over a corpus")
    p_bench.add_argument("corpus", help="directory of .cnf files")
    p_bench.add_argument("--out", required=True, help="CSV output path")
    p_bench.add_argument("--label", help="configLabel for the CSV (default: preset or 'custom')")
    p_bench.add_argument(
        "--workers", type=int, default=1,
        help="worker processes; jobs are grouped per file and each file is "
        "parsed once per suite",
    )
    _add_config_flags(p_bench)

    p_verify = sub.add_parser("verify", help="check a model against a CNF")
    p_verify.add_argument("cnf", help="path to a DIMACS CNF file")
    p_verify.add_argument("model", help="file of signed literals, bare or on 'v' lines")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "solve":
        return _cmd_solve(args, parser)
    if args.command == "bench":
        return _cmd_bench(args, parser)
    return _cmd_verify(args, parser)


if __name__ == "__main__":
    sys.exit(main())
